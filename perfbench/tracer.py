"""In-memory span tracer that wraps the public functions of the overparam package.

Spans are recorded at the boundary of each package layer (the modules
`models`, `geometry`, `descent`, `potentials`, `bounds`, `oracle`, `cli`),
kept in memory for the life of one command process and written to a JSON
file when the command ends. The package itself is not changed: wrappers are
installed from here, in every namespace that binds the wrapped function.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable

# Model methods timed per family; each is wrapped on every family class that
# defines it in its own __dict__, so inherited and overriding versions share a
# name.
MODEL_METHODS = ("predictions", "jacobian", "gradient", "per_sample_gradient")

DESCENT_FUNCTIONS = ("run_gd", "run_sgd")

# (module, function) pairs wrapped as plain functions, besides every
# `bounds.check_*` function.
FUNCTIONS = (
    ("geometry", "probe_spectrum"),
    ("geometry", "verify_assumptions"),
    *(("descent", name) for name in DESCENT_FUNCTIONS),
    ("potentials", "exact_conditional_drift"),
    ("potentials", "build_packing"),
    ("potentials", "neighborhood_monitor"),
    ("bounds", "closest_optimum_glm"),
    ("oracle", "lowrank_init"),
    ("cli", "auto_probe_radius"),
    ("cli", "auto_tune_lowrank_eta"),
)


class Tracer:
    """Records one span per wrapped call: id, parent id, name, start and end.

    Span ids are indices into ``spans``; the parent is the innermost span open
    when the call began, so ids link nested calls into a parent chain. Counters
    hold work counts read from the arguments or results at the same boundary.
    """

    def __init__(self, command: str):
        self.command = command
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [id, parent, name id, start ns, end ns]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name_id, clock(), 0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counters, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the command id, span names, spans and counters as JSON."""
        trace = {"command": self.command, "names": self.names, "spans": self.spans,
                 "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Counters read at the layer boundaries
# ---------------------------------------------------------------------------

def _probe_pairs(m: int, max_pairs: int) -> int:
    """Pair count of probe_spectrum's own rule: all pairs, else a chain."""
    if m * (m - 1) // 2 <= max_pairs:
        return m * (m - 1) // 2
    return (m - 1) + max(m - 2, 0)


def _count_probe_spectrum(signature: inspect.Signature):
    def count(counters, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counters["geometry.probe_points"] += result.probe_count
        counters["geometry.pairs"] += _probe_pairs(result.probe_count,
                                                   bound.arguments["max_pairs"])
    return count


def _count_verify(counters, args, kwargs, result):
    m = result.probe_count
    counters["geometry.probe_points"] += m
    counters["geometry.pairs"] += m * (m - 1) // 2


def _count_jacobian(counters, args, kwargs, result):
    model = args[0]
    counters["models.jacobian_bytes"] += model.n * model.p * 8


def _count_steps(counters, args, kwargs, result):
    counters["descent.steps"] += int(result.iters[-1])


def _count_rows(counters, args, kwargs, result):
    counters["descent.rows_written"] += len(args[0])


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _replace_everywhere(modules: list, original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name that refers to ``original``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and model methods for ``tracer``.

    A function bound by `from ... import` in another module (as `cli` binds
    `probe_spectrum`, `run_gd` and `exact_conditional_drift`) is rebound in
    that namespace too, so the calls the CLI makes are the ones traced. A name
    the package no longer defines is skipped, and its metrics read zero.
    """
    import overparam
    from overparam import bounds, cli, descent, geometry, models, oracle, potentials

    layers = {"models": models, "geometry": geometry, "descent": descent,
              "potentials": potentials, "bounds": bounds, "oracle": oracle, "cli": cli}
    namespaces = [overparam, *layers.values()]

    hooks = {
        ("geometry", "probe_spectrum"):
            _count_probe_spectrum(inspect.signature(geometry.probe_spectrum)),
        ("geometry", "verify_assumptions"): _count_verify,
        **{("descent", name): _count_steps for name in DESCENT_FUNCTIONS},
    }
    targets = list(FUNCTIONS)
    targets += [("bounds", name) for name in sorted(vars(bounds))
                if name.startswith("check_") and inspect.isfunction(getattr(bounds, name))]
    for module_name, attr in targets:
        original = getattr(layers[module_name], attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(f"{module_name}.{attr}", original,
                              hooks.get((module_name, attr)))
        _replace_everywhere(namespaces, original, wrapped)

    families = [cls for cls in vars(models).values()
                if isinstance(cls, type) and issubclass(cls, models.Model)]
    for cls in families:
        for method in MODEL_METHODS:
            if method in cls.__dict__:
                hook = _count_jacobian if method == "jacobian" else None
                setattr(cls, method, tracer.wrap(f"models.{method}", cls.__dict__[method], hook))

    descent.Trajectory.save = tracer.wrap("descent.Trajectory.save",
                                          descent.Trajectory.save, _count_rows)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times_ns(spans: list[list[int]]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a span's children never overlap.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[sid] for sid, _parent, _name, start, end in spans]


def ancestors(spans: list[list[int]], sid: int):
    """Yield the ids of the spans enclosing span ``sid``, innermost first."""
    parent = spans[sid][1]
    while parent >= 0:
        yield parent
        parent = spans[parent][1]


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command, from its spans and counters.

    Keys are `<module>.<function>.calls` and `<module>.<function>.self_s` for
    every span name, the boundary counters, and the derived counts the
    benchmark reports (forward passes inside descent, tuning attempts).
    """
    names = trace["names"]
    spans = trace["spans"]
    out: dict[str, float] = defaultdict(float)
    for (sid, _parent, name_id, _start, _end), self_ns in zip(spans, self_times_ns(spans)):
        name = names[name_id]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_ns * 1e-9
    for key, value in trace["counters"].items():
        out[key] += value

    descent_ids = {names.index(n) for n in (f"descent.{f}" for f in DESCENT_FUNCTIONS)
                   if n in names}
    forward_id = names.index("models.predictions") if "models.predictions" in names else None
    run_gd_id = names.index("descent.run_gd") if "descent.run_gd" in names else None
    tune_id = (names.index("cli.auto_tune_lowrank_eta")
               if "cli.auto_tune_lowrank_eta" in names else None)
    for sid, parent, name_id, _start, _end in spans:
        if name_id == forward_id and any(spans[a][2] in descent_ids
                                         for a in ancestors(spans, sid)):
            out["descent.forward_passes"] += 1
        if name_id == run_gd_id and parent >= 0 and spans[parent][2] == tune_id:
            out["cli.auto_tune_lowrank_eta.runs"] += 1
    return dict(out)
