"""Every CLI output's bits: a small command matrix and its committed digest table.

Each command of ``MATRIX`` runs in process through ``overparam.cli.main``,
with the configs and its output directory relative to a scratch working
directory. Its digest is the exit code and a sha256 of its stdout, its stderr
and every file it writes. ``tests/test_output_digests.py`` reruns the matrix
against ``tests/data/output_digests.json``. A change that moves any output
bit regenerates the table in the same change, so the table's diff names the
commands that moved:

    PYTHONPATH=src python tests/output_digests.py

OpenBLAS picks its kernels by CPU, so the table also records a fingerprint of
numpy, its BLAS configuration and the CPU features numpy enabled. Where the
fingerprint differs, the test compares exit codes and first stderr lines
exactly and the numbers through ``perfbench/checks.py``'s ``digest`` and
``compare``, for the command kinds it knows.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from overparam import cli

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).resolve().parent / "data" / "output_digests.json"

_spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# Command kinds that checks.digest and checks.compare know.
CHECKED_KINDS = ("run", "verify", "sgd-martingale", "experiment-lowrank")

FAMILIES = {
    "glm": "model.family = glm\nmodel.n = 10\nmodel.p = 30\n",
    "linear": "model.family = linear\nmodel.n = 8\nmodel.p = 20\n",
    "net": "model.family = net\nmodel.n = 6\nmodel.d = 12\nmodel.k = 5\n",
    "lowrank": "model.family = lowrank\nmodel.n = 6\nmodel.d = 12\nmodel.r = 2\n",
}
INSTANCES = (0, 2)
KINDS = ("gd", "sgd", "pl")

CONFIGS = {
    f"{family}{instance}.cfg": (f"{text}model.data_seed = {instance}\n"
                                f"optimizer.seed = {instance}\noptimizer.iters = 200\n"
                                "diag.probe_samples = 16\n")
    for family, text in FAMILIES.items() for instance in INSTANCES
}
CONFIGS.update({
    # n > d, so the net's Gram is rank deficient and its rate rounds to 1 (exit 2).
    "net_rate_one.cfg": "model.family = net\nmodel.n = 10\nmodel.d = 8\nmodel.k = 5\n",
    "tall.cfg": "model.family = glm\nmodel.n = 40\nmodel.p = 30\n",
    "unknown_key.cfg": "model.family = glm\nmodel.bogus = 1\n",
    "too_big.cfg": ("model.family = linear\nmodel.identity = on\nmodel.n = 2001\n"
                    "model.p = 2000\n"),
})
# A plain file, so an output directory below it cannot be made (io error, exit 3).
BLOCKER = "blocker"


def _matrix() -> list[tuple[str, str, list[str]]]:
    """(label, kind, argv without --out) for every command, in a fixed order."""
    out = []
    for family in FAMILIES:
        for instance in INSTANCES:
            name = f"{family}{instance}"
            cfg = ["--config", f"{name}.cfg"]
            for kind in KINDS:
                out.append((f"run_{name}_{kind}", "run",
                            ["run", *cfg, f"optimizer.kind={kind}"]))
            out.append((f"run_{name}_sgd_anchored", "run",
                        ["run", *cfg, "optimizer.kind=sgd", "diag.anchors=on"]))
            for kind in KINDS:
                out.append((f"verify_{name}_{kind}", "verify",
                            ["verify", *cfg, f"optimizer.kind={kind}"]))
            out.append((f"martingale_{name}", "sgd-martingale",
                        ["sgd-martingale", *cfg, "optimizer.kind=sgd", "optimizer.iters=100"]))
    out.append(("experiment_lowrank_n25", "experiment-lowrank",
                ["experiment-lowrank", "--n", "25"]))
    out.append(("experiment_lowrank_all", "experiment-lowrank",
                ["experiment-lowrank", "--n", "all", "--iters", "5"]))
    for mode in ("tight-upper", "tight-lower"):
        out.append((f"lower_bound_{mode.replace('-', '_')}", "lower-bound",
                    ["lower-bound", "--alpha", "1", "--beta", "2", "--mode", mode]))
    # Exit 1: a run whose first step overflows, a step size above the cap, a tall model.
    for kind in KINDS:
        out.append((f"run_glm0_{kind}_eta1e300", "run",
                    ["run", "--config", "glm0.cfg", f"optimizer.kind={kind}",
                     "optimizer.eta=1e300"]))
    out.append(("run_glm0_gd_eta5", "run",
                ["run", "--config", "glm0.cfg", "--eta", "5", "--iters", "300"]))
    # GLM SGD steps a block of 64 at a time: stops inside a block, on overflow
    # (non_finite at iteration 138, exit 1), thinned and anchored, and at tol (98).
    sgd = ["run", "--config", "glm0.cfg", "optimizer.kind=sgd"]
    out.append(("run_glm0_sgd_eta3", "run", [*sgd, "optimizer.eta=3"]))
    out.append(("run_glm0_sgd_eta3_anchored_every5", "run",
                [*sgd, "optimizer.eta=3", "diag.anchors=on", "optimizer.record_every=5"]))
    out.append(("run_glm0_sgd_tol", "run", [*sgd, "optimizer.tol=4.85"]))
    out.append(("run_tall", "run", ["run", "--config", "tall.cfg"]))
    # Exit 1: a probe ball whose Jacobian Gram traces overflow, also in the
    # factors themselves (1e308), and one whose point gaps overflow (1e160).
    for command in ("run", "verify"):
        out.append((f"{command}_lowrank0_radius1e300", command,
                    [command, "--config", "lowrank0.cfg", "diag.probe_radius=1e300"]))
    out.append(("run_lowrank0_radius1e308", "run",
                ["run", "--config", "lowrank0.cfg", "diag.probe_radius=1e308"]))
    for command in ("run", "verify"):
        out.append((f"{command}_glm0_radius1e160", command,
                    [command, "--config", "glm0.cfg", "diag.probe_radius=1e160"]))
    # Exit 1: an SGD plan whose step-size cap rounds to 0 (beta^2 B^2 overflows).
    out.append(("run_lowrank0_sgd_radius1e120", "run",
                ["run", "--config", "lowrank0.cfg", "optimizer.kind=sgd",
                 "diag.probe_radius=1e120"]))
    out.append(("martingale_lowrank0_radius1e120", "sgd-martingale",
                ["sgd-martingale", "--config", "lowrank0.cfg", "optimizer.kind=sgd",
                 "diag.probe_radius=1e120"]))
    # Exit 2: a parameter error and a config error.
    out.append(("run_net_rate_one", "run", ["run", "--config", "net_rate_one.cfg"]))
    out.append(("run_unknown_key", "run", ["run", "--config", "unknown_key.cfg"]))
    # Exit 3: a capacity error, and an io error for every command.
    out.append(("run_too_big", "run", ["run", "--config", "too_big.cfg"]))
    # Exit 3: probe pairs above the budget, the probe's chain and verify's all pairs.
    out.append(("run_glm0_probe_samples1e15", "run",
                ["run", "--config", "glm0.cfg", "diag.probe_samples=1000000000000000"]))
    out.append(("verify_glm0_probe_samples1024", "verify",
                ["verify", "--config", "glm0.cfg", "diag.probe_samples=1024"]))
    out.append(("run_io_error", "run", ["run", "--config", "glm0.cfg", "optimizer.iters=5"]))
    out.append(("verify_io_error", "verify", ["verify", "--config", "glm0.cfg"]))
    out.append(("martingale_io_error", "sgd-martingale",
                ["sgd-martingale", "--config", "glm0.cfg", "optimizer.kind=sgd",
                 "optimizer.iters=5"]))
    out.append(("lower_bound_io_error", "lower-bound",
                ["lower-bound", "--alpha", "1", "--beta", "2", "--iters", "5"]))
    out.append(("experiment_lowrank_io_error", "experiment-lowrank",
                ["experiment-lowrank", "--n", "25", "--iters", "5"]))
    return out


MATRIX = _matrix()


def out_dir(label: str) -> str:
    return f"{BLOCKER}/{label}" if label.endswith("_io_error") else f"out/{label}"


def fingerprint() -> dict:
    """What decides the bits besides the package: numpy, its BLAS build and kernel
    choice (the OpenBLAS configuration names the core it picked) and the CPU features."""
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "openblas_configuration": config["Build Dependencies"]["blas"].get(
            "openblas configuration"),
        "cpu_features": sorted({*simd.get("baseline", []), *simd.get("found", [])}),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare_work(work: Path) -> None:
    """Write the matrix's configs and the io-error blocker into work."""
    for name, text in CONFIGS.items():
        (work / name).write_text(text, encoding="utf-8")
    (work / BLOCKER).write_text("not a directory\n", encoding="utf-8")


def run_command(label: str, kind: str, argv: list[str], work: Path) -> dict:
    """Run one command with work as the working directory; return its entry."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # Warnings are recorded, not printed, so the regenerating script and pytest
    # (which captures them) see the same stderr.
    with contextlib.chdir(work), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([*argv, "--out", out_dir(label)])
    out = work / out_dir(label)
    files = {} if not out.is_dir() else {
        path.relative_to(out).as_posix(): _sha256(path.read_bytes())
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    err = stderr.getvalue()
    entry = {
        "argv": argv,
        "kind": kind,
        "exit": code,
        "stderr_first_line": err.splitlines()[0] if err else "",
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "sha256": {"stdout": _sha256(stdout.getvalue().encode()),
                   "stderr": _sha256(err.encode()), "files": files},
        # checks.digest reads a run's files; a refusal with exit 1 writes none.
        "digest": (checks.digest(kind, out, code, err)
                   if kind in CHECKED_KINDS and (files or code not in (0, 1)) else None),
    }
    return json.loads(json.dumps(entry))  # the form the table holds


def compare_entry(want: dict, got: dict, bitwise: bool) -> tuple[list[str], str]:
    """Problems found comparing a command's entry with the table's, and which
    comparison ran: every hash when the fingerprint matches, else the exit code
    and first stderr line exactly and the numbers through ``checks.compare``."""
    problems = [f"exit code {got['exit']}, expected {want['exit']}"] \
        if got["exit"] != want["exit"] else []
    if bitwise:
        for stream in ("stdout", "stderr"):
            if got["sha256"][stream] != want["sha256"][stream]:
                problems.append(f"{stream} moved")
        if got["warnings"] != want["warnings"]:
            problems.append(f"warnings {got['warnings']}, expected {want['warnings']}")
        files, recorded = got["sha256"]["files"], want["sha256"]["files"]
        for name in sorted(files.keys() | recorded.keys()):
            if name not in recorded:
                problems.append(f"{name} written")
            elif name not in files:
                problems.append(f"{name} not written")
            elif files[name] != recorded[name]:
                problems.append(f"{name} moved")
        return problems, ("bitwise: exit code, warnings and the sha256 of stdout, stderr "
                          "and every file")
    how = "fingerprint differs: exit code and first stderr line exactly"
    if got["stderr_first_line"] != want["stderr_first_line"]:
        problems.append(f"stderr starts {got['stderr_first_line']!r}, "
                        f"expected {want['stderr_first_line']!r}")
    if want["digest"] is not None:
        how += f", numbers through perfbench checks.compare({want['kind']!r})"
        if got["digest"] is None:
            problems.append("no outputs to digest")
        elif got["exit"] == want["exit"] and got["digest"] != want["digest"]:
            problems += checks.compare(want["kind"], want["digest"], got["digest"])[0]
    return problems, how


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def main() -> int:
    """Rerun the matrix, rewrite the table and name the commands that moved."""
    old = load_table()["commands"] if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        prepare_work(work)
        commands = {label: run_command(label, kind, argv, work) for label, kind, argv in MATRIX}
    # One command a line, so a diff of the table names the commands that moved.
    lines = ",\n".join(f"  {json.dumps(label)}: {json.dumps(entry, sort_keys=True)}"
                       for label, entry in commands.items())
    TABLE.write_text(f'{{"fingerprint": {json.dumps(fingerprint(), sort_keys=True)},\n'
                     f' "commands": {{\n{lines}\n }}\n}}\n', encoding="utf-8")
    moved = [label for label, entry in commands.items() if old.get(label) != entry]
    print(f"wrote {TABLE.relative_to(ROOT)}: {len(commands)} commands, "
          f"{len(moved)} moved or new" + "".join(f"\n  {label}" for label in moved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
