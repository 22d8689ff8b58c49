"""Flat key=value run configuration: UTF-8, `#` comments, unknown keys rejected."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any

MODEL_FAMILIES = ("linear", "glm", "lowrank", "net")
OPTIMIZER_KINDS = ("gd", "sgd", "pl")
REGIMES = ("bounded", "smooth")


class ConfigError(ValueError):
    """Malformed configuration file or value."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: model family and sizes, optimizer, diagnostics, output.

    eta, tol, probe_radius and anchor_count hold None for the literal "auto"
    (the paper's rule); seeds for data generation and for the optimizer are
    independent knobs.
    """

    family: str = "linear"
    n: int = 10
    p: int = 20
    d: int = 0
    r: int = 0
    k: int = 0
    activation: str = "tanh_linear"
    activation_scale: float = 0.3
    identity_X: bool = False  # X = eye(n, p), zero labels, theta0 = ones
    data_seed: int = 0

    optimizer: str = "gd"
    eta: float | None = None
    iters: int = 200
    tol: float | None = None
    opt_seed: int = 0
    record_every: int = 1

    probe_samples: int = 64
    probe_radius: float | None = None
    nu: float = 8.0
    lam: float = 0.5
    regime: str = "bounded"
    anchor_count: int | None = None
    anchors: bool = False

    out_dir: str = ""

    def __post_init__(self):
        checks = (
            ("family", self.family in MODEL_FAMILIES, f"one of {MODEL_FAMILIES}"),
            ("optimizer", self.optimizer in OPTIMIZER_KINDS, f"one of {OPTIMIZER_KINDS}"),
            ("regime", self.regime in REGIMES, f"one of {REGIMES}"),
            ("data_seed", self.data_seed >= 0, ">= 0"),
            ("opt_seed", self.opt_seed >= 0, ">= 0"),
            ("iters", self.iters >= 1, ">= 1"),
            ("record_every", self.record_every >= 1, ">= 1"),
            ("probe_samples", self.probe_samples >= 1, ">= 1"),
            ("lam", 0.0 < self.lam <= 1.0, "in (0, 1]"),
            ("eta", _auto_or(self.eta, float), "a finite number > 0 or 'auto'"),
            ("tol", _auto_or(self.tol, float, zero_ok=True), "a finite number >= 0 or 'auto'"),
            ("probe_radius", _auto_or(self.probe_radius, float), "a finite number > 0 or 'auto'"),
            ("anchor_count", _auto_or(self.anchor_count, int), "an integer >= 1 or 'auto'"),
        )
        for name, ok, rule in checks:
            if not ok:
                value = getattr(self, name)
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be {rule}, got {value!r}")


def _auto_or(value: Any, typ: type, zero_ok: bool = False) -> bool:
    """None ("auto"), or a finite `typ` (ints count as floats) > 0, or >= 0 with zero_ok."""
    kinds = (int, float) if typ is float else int
    return value is None or (
        isinstance(value, kinds) and not isinstance(value, bool) and math.isfinite(value)
        and (value >= 0 if zero_ok else value > 0)
    )


# file key -> (dataclass field, python type)
_KEYS: dict[str, tuple[str, type]] = {
    "model.family": ("family", str),
    "model.n": ("n", int),
    "model.p": ("p", int),
    "model.d": ("d", int),
    "model.r": ("r", int),
    "model.k": ("k", int),
    "model.activation": ("activation", str),
    "model.activation_scale": ("activation_scale", float),
    "model.identity": ("identity_X", bool),
    "model.data_seed": ("data_seed", int),
    "optimizer.kind": ("optimizer", str),
    "optimizer.eta": ("eta", float),
    "optimizer.iters": ("iters", int),
    "optimizer.tol": ("tol", float),
    "optimizer.seed": ("opt_seed", int),
    "optimizer.record_every": ("record_every", int),
    "diag.probe_samples": ("probe_samples", int),
    "diag.probe_radius": ("probe_radius", float),
    "diag.nu": ("nu", float),
    "diag.lambda": ("lam", float),
    "diag.regime": ("regime", str),
    "diag.anchor_count": ("anchor_count", int),
    "diag.anchors": ("anchors", bool),
    "output.dir": ("out_dir", str),
}
_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}
_AUTO_FIELDS = ("eta", "tol", "probe_radius", "anchor_count")


def _coerce(key: str, raw: str) -> Any:
    field_name, typ = _KEYS[key]
    auto = field_name in _AUTO_FIELDS
    if auto and raw == "auto":
        return None
    if typ is bool:
        if raw in ("on", "true", "1", "yes"):
            return True
        if raw in ("off", "false", "0", "no"):
            return False
        raise ConfigError(f"{key} must be on/off, got {raw!r}")
    if typ in (int, float):
        try:
            return typ(raw)
        except ValueError as exc:
            kind = ("an integer" if typ is int else "a number") + (" or 'auto'" if auto else "")
            raise ConfigError(f"{key} must be {kind}, got {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, _ = _KEYS[key]
        if field_name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[field_name] = _coerce(key, raw)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: RunConfig) -> str:
    """Serialize with every key present, in canonical order; round-trips losslessly."""
    lines = []
    for f in fields(cfg):
        key = _FIELD_TO_KEY[f.name]
        value = getattr(cfg, f.name)
        if value is None:
            text = "auto"
        elif isinstance(value, bool):
            text = "on" if value else "off"
        elif _KEYS[key][1] is float:
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_text(cfg))


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply `file-key -> raw string` overrides (same validation as parsing)."""
    updates: dict[str, Any] = {}
    for key, raw in overrides.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, _ = _KEYS[key]
        updates[field_name] = _coerce(key, raw)
    return replace(cfg, **updates)
