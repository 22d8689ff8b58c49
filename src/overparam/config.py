"""Flat key=value run configuration: UTF-8, `#` comments, unknown keys rejected."""

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, get_args

from .models import ACTIVATIONS

MODEL_FAMILIES = ("linear", "glm", "lowrank", "net")
OPTIMIZER_KINDS = ("gd", "sgd", "pl")
REGIMES = ("bounded", "smooth")


class ConfigError(ValueError):
    """Malformed configuration file or value."""


def _key(key: str, default: Any) -> Any:
    """A `RunConfig` field read and written under `key` in a config file."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """One experiment: model family and sizes, optimizer, diagnostics, output.

    Each field is declared once, with its config-file key, and read as the type
    it is annotated with. A field typed `X | None` (eta, tol, probe_radius,
    anchor_count) also takes the literal "auto" (the paper's rule), held as None.
    Seeds for data generation and for the optimizer are independent knobs.
    """

    family: str = _key("model.family", "linear")
    n: int = _key("model.n", 10)
    p: int = _key("model.p", 20)
    d: int = _key("model.d", 0)
    r: int = _key("model.r", 0)
    k: int = _key("model.k", 0)
    activation: str = _key("model.activation", "tanh_linear")
    activation_scale: float = _key("model.activation_scale", 0.3)
    identity_X: bool = _key("model.identity", False)  # X = eye(n, p), zero labels, theta0 = ones
    data_seed: int = _key("model.data_seed", 0)

    optimizer: str = _key("optimizer.kind", "gd")
    eta: float | None = _key("optimizer.eta", None)
    iters: int = _key("optimizer.iters", 200)
    tol: float | None = _key("optimizer.tol", None)
    opt_seed: int = _key("optimizer.seed", 0)
    record_every: int = _key("optimizer.record_every", 1)

    probe_samples: int = _key("diag.probe_samples", 64)
    probe_radius: float | None = _key("diag.probe_radius", None)
    nu: float = _key("diag.nu", 8.0)
    lam: float = _key("diag.lambda", 0.5)
    regime: str = _key("diag.regime", "bounded")
    anchor_count: int | None = _key("diag.anchor_count", None)
    anchors: bool = _key("diag.anchors", False)

    out_dir: str = _key("output.dir", "")

    def __post_init__(self):
        family, key = self.family, {f.name: f.metadata["key"] for f in fields(self)}
        checks = (
            ("family", family in MODEL_FAMILIES, f"one of {MODEL_FAMILIES}"),
            ("n", self.n >= 1, ">= 1"),
            ("p", family not in ("linear", "glm") or self.p >= 1, ">= 1"),
            ("d", family not in ("lowrank", "net") or self.d >= 1, ">= 1"),
            ("r", family != "lowrank" or 1 <= self.r <= self.d, f"in [1, {key['d']} = {self.d}]"),
            ("k", family != "net" or self.k >= 1, ">= 1"),
            ("activation", family not in ("glm", "net") or self.activation in ACTIVATIONS,
             f"one of {tuple(ACTIVATIONS)}"),
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
                raise ConfigError(f"{key[name]} must be {rule}, got {value!r}")
        if family in ("glm", "net"):
            try:  # the activation's constructor owns the rule for its scale
                ACTIVATIONS[self.activation](self.activation_scale)
            except ValueError as exc:
                raise ConfigError(f"{key['activation_scale']} must be valid for "
                                  f"{self.activation} ({exc})") from exc


def _auto_or(value: Any, typ: type, zero_ok: bool = False) -> bool:
    """None ("auto"), or a finite `typ` (ints count as floats) > 0, or >= 0 with zero_ok."""
    kinds = (int, float) if typ is float else int
    return value is None or (
        isinstance(value, kinds) and not isinstance(value, bool) and math.isfinite(value)
        and (value >= 0 if zero_ok else value > 0)
    )


# config key -> RunConfig field, in declaration order
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _type(key: str) -> tuple[type, bool]:
    """The key's value type, and whether it takes "auto": it does when typed X | None."""
    typ = _FIELDS[key].type
    args = get_args(typ)
    return (args[0], True) if type(None) in args else (typ, False)


def _coerce(key: str, raw: str) -> Any:
    typ, auto = _type(key)
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
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name = _FIELDS[key].name
        if field_name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[field_name] = _coerce(key, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: RunConfig) -> str:
    """Serialize with every key present, in canonical order; round-trips losslessly."""
    lines = []
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        if value is None:
            text = "auto"
        elif isinstance(value, bool):
            text = "on" if value else "off"
        elif _type(key)[0] is float:
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
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        updates[_FIELDS[key].name] = _coerce(key, raw)
    return replace(cfg, **updates)
