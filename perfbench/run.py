"""Benchmark of the `overparam` CLI: three workloads timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 0 --seconds 36 --trace 0

Each pass runs the workload's commands one at a time, each in a fresh
`python -m overparam.cli` process with BLAS/OpenMP pinned to one thread, and
checks every command's exit code and outputs against reference values. Passes
repeat until the next one would not fit in --seconds (at least one runs).

--trace 0 reports the end-to-end metrics: `wall_s` (the workload's commands'
total wall time, spawn to exit: the sum over commands of each command's median
over passes, so that one slow command in one pass does not move the total),
`setup_s` (the median time of a fresh interpreter importing `overparam.cli`
and exiting, timed between commands all through the run) and `peak_rss_mb`
(median over passes of the largest peak RSS of any command). --trace 1 alternates traced and untraced passes and reports the
per-layer metrics from the traced ones. The last line of stdout is one JSON
object: correct, attempted, failed, metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s trials per run. They are spread evenly over the run, because host
# slow spells last 15 s or more: trials taken back to back would all read
# whichever spell they hit.
SETUP_TRIALS = 16
# Every run ends within this many seconds of its start; a command still
# running then is killed and counts as failed.
RUN_DEADLINE_S = 170.0

# Per-layer metrics reported by --trace 1: name -> unit. Counts come from one
# traced pass (they repeat exactly); times are medians over traced passes.
PER_LAYER = {
    "models.jacobian.calls": "count",
    "models.jacobian.self_s": "s",
    "models.jacobian_bytes": "bytes_computed",
    "models.predictions.calls": "count",
    "models.predictions.self_s": "s",
    "models.gradient.calls": "count",
    "models.gradient.self_s": "s",
    "models.per_sample_gradient.calls": "count",
    "models.per_sample_gradient.self_s": "s",
    "geometry.probe_spectrum.calls": "count",
    "geometry.probe_spectrum.self_s": "s",
    "geometry.probe_points": "count",
    "geometry.pairs": "count",
    "geometry.verify_assumptions.self_s": "s",
    "descent.run_gd.self_s": "s",
    "descent.run_sgd.self_s": "s",
    "descent.steps": "count",
    "descent.forward_passes": "count",
    "descent.forward_per_step": "ratio",
    "descent.Trajectory.save.self_s": "s",
    "descent.rows_written": "count",
    "potentials.exact_conditional_drift.calls": "count",
    "potentials.exact_conditional_drift.self_s": "s",
    "potentials.build_packing.self_s": "s",
    "potentials.neighborhood_monitor.self_s": "s",
    "bounds.checks.self_s": "s",
    "bounds.closest_optimum_glm.self_s": "s",
    "oracle.lowrank_init.self_s": "s",
    "cli.auto_probe_radius.self_s": "s",
    "cli.auto_tune_lowrank_eta.calls": "count",
    "cli.auto_tune_lowrank_eta.self_s": "s",
    "cli.auto_tune_lowrank_eta.attempts": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class CommandResult:
    label: str
    wall_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    traj_dev: float = 0.0
    layers: dict[str, float] | None = None


@dataclass
class PassResult:
    commands: list[CommandResult]
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.commands)


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def spawn(argv: list[str], cwd: Path, env: dict, log: Path,
          deadline: float) -> tuple[float, float, int]:
    """Run argv to completion; return (wall s, peak RSS MB, exit code).

    The child is reaped with wait4 so its own peak RSS is read; a child still
    running at the deadline is killed.
    """
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd: Command, work: Path, env: dict, reference: dict,
                deadline: float, traced: bool) -> CommandResult:
    out_dir = work / cmd.out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    spans_path = work / f"{cmd.label}.spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), cmd.label,
                "--", *cmd.args]
    else:
        argv = [sys.executable, "-m", "overparam.cli", *cmd.args]
    log = work / f"{cmd.label}.log"
    wall, rss, code = spawn(argv, work, env, log, deadline)
    result = CommandResult(cmd.label, wall, rss)
    try:
        got = checks.digest(cmd.kind, out_dir, code, log.read_text(encoding="utf-8"))
        problems, result.traj_dev = checks.compare(cmd.kind, reference[cmd.label], got)
    except (OSError, ValueError, KeyError, AttributeError, IndexError, StopIteration) as exc:
        result.problems.append(f"unreadable output: {exc!r}")
    else:
        result.problems.extend(problems)
    if traced:
        try:
            with open(spans_path, encoding="utf-8") as fh:
                result.layers = tracer.summarize(json.load(fh))
        except (OSError, ValueError) as exc:
            result.problems.append(f"no spans: {exc!r}")
        else:
            spans_path.unlink()
    return result


class SetupTrials:
    """Wall times of a fresh interpreter importing overparam.cli and exiting.

    Trial k is due k * seconds / SETUP_TRIALS after the start of the run. The
    trials due run before each command; the rest run when the passes end.
    """

    def __init__(self, env: dict, work: Path, seconds: float, deadline: float):
        self.env, self.work, self.deadline = env, work, deadline
        self.interval = seconds / SETUP_TRIALS
        self.start = time.monotonic()
        self.times: list[float] = []

    def _trial(self) -> None:
        argv = [sys.executable, "-c", "import overparam.cli"]
        log = self.work / "setup.log"
        wall, _rss, code = spawn(argv, self.work, self.env, log, self.deadline)
        if code != 0:
            raise RuntimeError(f"importing overparam.cli failed (exit {code}); see {log}")
        self.times.append(wall)

    def run_due(self) -> None:
        while (len(self.times) < SETUP_TRIALS
               and time.monotonic() - self.start >= len(self.times) * self.interval):
            self._trial()

    def finish(self) -> float:
        """Run the trials left and return the median of all of them."""
        while len(self.times) < SETUP_TRIALS:
            self._trial()
        return statistics.median(self.times)


def run_pass(commands: list[Command], work: Path, env: dict, reference: dict,
             deadline: float, traced: bool = False,
             setup: SetupTrials | None = None) -> PassResult:
    results = []
    for c in commands:
        if setup is not None:
            setup.run_due()
        results.append(run_command(c, work, env, reference, deadline, traced))
    return PassResult(results, traced)


def pass_layers(p: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    total: dict[str, float] = {}
    for c in p.commands:
        for key, value in (c.layers or {}).items():
            total[key] = total.get(key, 0.0) + value
    steps = total.get("descent.steps", 0.0)
    total["descent.forward_per_step"] = total.get("descent.forward_passes", 0.0) / steps \
        if steps else 0.0
    tunes = total.get("cli.auto_tune_lowrank_eta.calls", 0.0)
    total["cli.auto_tune_lowrank_eta.attempts"] = \
        total.get("cli.auto_tune_lowrank_eta.runs", 0.0) / tunes if tunes else 0.0
    total["bounds.checks.self_s"] = sum(v for k, v in total.items()
                                        if k.startswith("bounds.check_") and k.endswith(".self_s"))
    return total


def layer_metrics(passes: list[PassResult]) -> dict[str, float]:
    traced = [pass_layers(p) for p in passes if p.traced]
    untraced = [p.wall_s for p in passes if not p.traced]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            out[name] = (statistics.median(p.wall_s for p in passes if p.traced)
                         - statistics.median(untraced))
        elif unit == "s":
            out[name] = statistics.median(t.get(name, 0.0) for t in traced)
        else:
            out[name] = traced[0].get(name, 0.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 env: dict) -> dict:
    """One benchmark run of one workload; prints its report and returns the
    result object (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    instance = seed % reference["instances"]
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = WORKLOADS[name](instance, work)
    expected = reference["digests"][f"{name}/{instance}"]

    setup = None if trace else SetupTrials(env, work, seconds, deadline)
    passes: list[PassResult] = []
    budget_start = time.monotonic()
    while True:
        # A traced run alternates traced and untraced passes, starting traced.
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(commands, work, env, expected, deadline, traced, setup))
        elapsed = time.monotonic() - budget_start
        per_pass = elapsed / len(passes)
        need_more = trace and len(passes) < 2
        if not need_more and elapsed + per_pass > seconds:
            break
        if time.monotonic() + per_pass > deadline:
            break

    setup_s = None if setup is None else setup.finish()
    results = [c for p in passes for c in p.commands]
    failed = sum(1 for c in results if c.problems)
    timed = [p for p in passes if not p.traced]
    print(f"workload {name} (seed {seed} -> instance {instance}, closed loop, 1 client): "
          f"{len(passes)} passes of {len(commands)} commands, trace={int(trace)}")
    for c in results:
        for problem in c.problems:
            print(f"FAIL {c.label}: {problem}")
    command_s = {cmd.label: statistics.median(c.wall_s for p in timed for c in p.commands
                                              if c.label == cmd.label)
                 for cmd in commands}
    for label, wall in command_s.items():
        print(f"  {label}_s = {wall:.4f} s (median of {len(timed)})")
    print(f"  fail_frac = {failed / len(results):.4f} ({failed}/{len(results)} commands)")
    print(f"  max_traj_dev = {max(c.traj_dev for c in results):.3g} (relative to column "
          f"scale; tolerance {checks.TRAJECTORY_TOL:g})")
    if setup is not None:
        print("  setup_s trials = " + " ".join(f"{t:.4f}" for t in setup.times))

    if trace:
        metrics = {metric: {"value": value, "unit": PER_LAYER[metric]}
                   for metric, value in layer_metrics(passes).items()}
    else:
        metrics = {
            "wall_s": {"value": sum(command_s.values()), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in timed),
                            "unit": "MB"},
        }
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "overparam" / "cli.py").is_file():
        sys.stderr.write(f"no overparam sources under {SRC}; run from a full checkout\n")
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    env = child_env()
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), reference, env)
            for name in names}
    if len(runs) == 1:
        result = runs[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{name}.{metric}": m for name, r in runs.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
