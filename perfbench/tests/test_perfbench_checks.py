"""Output checks: an unchanged rerun passes, a tampered output is a failure.

Run from the root of a checkout: python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
import time

import checks
import run
from workloads import Command

TINY_GLM = {"model.family": "glm", "model.n": 6, "model.p": 12, "model.data_seed": 3,
            "optimizer.kind": "gd", "optimizer.iters": 30, "diag.probe_samples": 6}


def tiny_commands(work) -> list[Command]:
    (work / "glm.cfg").write_text("".join(f"{k} = {v}\n" for k, v in TINY_GLM.items()))
    common = ("--config", "glm.cfg")
    return [
        Command("run", "run", ("run", *common, "--out", "out/run", "--quiet")),
        Command("verify", "verify", ("verify", *common, "--out", "out/verify", "--quiet")),
    ]


def outputs(work, commands) -> dict:
    env = run.child_env()
    digests = {}
    for cmd in commands:
        argv = [sys.executable, "-m", "overparam.cli", *cmd.args]
        log = work / f"{cmd.label}.log"
        _wall, _rss, code = run.spawn(argv, work, env, log, time.monotonic() + 120)
        digests[cmd.label] = checks.digest(cmd.kind, work / cmd.out_dir, code,
                                           log.read_text())
    return digests


def edit_line(path, index: int, old: str, new: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    path.write_text("".join(lines))


def test_rerun_matches_and_tampered_outputs_fail(tmp_path):
    commands = tiny_commands(tmp_path)
    reference = outputs(tmp_path, commands)
    for cmd in commands:
        problems, dev = checks.compare(cmd.kind, reference[cmd.label], reference[cmd.label])
        assert problems == [] and dev == 0.0

    # A trajectory with a column fewer than the reference is a problem, not a crash.
    short = json.loads(json.dumps(reference["run"]))
    for row in short["trajectory"]["sample"].values():
        row.pop()
    problems, dev = checks.compare("run", reference["run"], short)
    assert dev == math.inf and any("columns" in p for p in problems)

    # Scale the misfit of the last trajectory row (always a sampled row).
    traj = tmp_path / "out/run/trajectory.csv"
    rows = [i for i, line in enumerate(traj.read_text().splitlines())
            if line and not line.startswith("#")]
    misfit = traj.read_text().splitlines()[rows[-1]].split(",")[2]
    edit_line(traj, rows[-1], misfit, repr(float(misfit) * (1 + 1e-6) + 1e-6))
    got = checks.digest("run", tmp_path / "out/run", 0)
    problems, dev = checks.compare("run", reference["run"], got)
    assert dev > checks.TRAJECTORY_TOL and any("trajectory" in p for p in problems)

    bounds = tmp_path / "out/run/bounds.csv"
    edit_line(bounds, 1, ",pass", ",fail")
    problems, _ = checks.compare("run", reference["run"],
                                 checks.digest("run", tmp_path / "out/run", 0))
    assert any("pass column" in p for p in problems)

    verify = tmp_path / "out/verify/verify.txt"
    index = next(i for i, line in enumerate(verify.read_text().splitlines())
                 if line.startswith("alpha="))
    alpha = verify.read_text().splitlines()[index][len("alpha="):]
    edit_line(verify, index, alpha, repr(float(alpha) * (1 + 1e-9)))
    problems, _ = checks.compare("verify", reference["verify"],
                                 checks.digest("verify", tmp_path / "out/verify", 1))
    assert any(p.startswith("alpha=") for p in problems)


def test_mismatch_counts_as_a_failed_command(tmp_path):
    commands = tiny_commands(tmp_path)
    reference = json.loads(json.dumps(outputs(tmp_path, commands)))
    env = run.child_env()
    deadline = time.monotonic() + 120
    clean = run.run_pass(commands, tmp_path, env, reference, deadline)
    assert [c.problems for c in clean.commands] == [[], []]

    reference["run"]["trajectory"]["rows"] += 1
    reference["verify"]["exit"] = 0
    tampered = run.run_pass(commands, tmp_path, env, reference, deadline)
    assert all(c.problems for c in tampered.commands)


def test_error_exit_is_checked_by_its_message(tmp_path):
    bad = Command("bad", "run", ("run", "--config", "missing.cfg", "--out", "out/bad",
                                 "--quiet"))
    reference = outputs(tmp_path, [bad])["bad"]
    assert reference["exit"] not in (0, 1) and reference["error"]
    assert checks.compare("run", reference, reference) == ([], 0.0)
    problems, _ = checks.compare("run", {**reference, "error": "other"}, reference)
    assert problems
