"""Tracer arithmetic on synthetic spans, and the wrappers on tiny real commands.

Run from the root of a checkout: python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracer

NAMES = ["cli.auto_tune_lowrank_eta", "descent.run_gd", "models.predictions",
         "bounds.check_lower_bound"]


def test_self_time_subtracts_children_down_the_tree():
    spans = [
        [0, -1, 0, 0, 100],   # auto_tune_lowrank_eta
        [1, 0, 1, 10, 40],    # run_gd inside the tuner
        [2, 1, 2, 15, 25],    # predictions inside run_gd
        [3, 0, 3, 50, 70],    # a check inside the tuner
    ]
    assert tracer.self_times_ns(spans) == [50, 20, 10, 20]


def test_summarize_aggregates_by_name_and_counts_descent_forward_passes():
    trace = {
        "names": NAMES,
        "spans": [
            [0, -1, 0, 0, 1000],
            [1, 0, 2, 0, 100],      # forward pass outside descent
            [2, 0, 1, 100, 900],
            [3, 2, 2, 200, 300],    # forward passes inside descent
            [4, 2, 2, 400, 500],
        ],
        "counters": {"descent.steps": 1},
    }
    out = tracer.summarize(trace)
    assert out["models.predictions.calls"] == 3
    assert out["models.predictions.self_s"] == pytest.approx(300e-9)
    assert out["descent.run_gd.self_s"] == pytest.approx(600e-9)
    assert out["cli.auto_tune_lowrank_eta.self_s"] == pytest.approx(100e-9)
    assert out["descent.forward_passes"] == 2
    assert out["descent.steps"] == 1


def test_probe_pair_rule_matches_probe_spectrum():
    assert tracer._probe_pairs(65, 4096) == 65 * 64 // 2
    assert tracer._probe_pairs(100, 4096) == 99 + 98


TINY_GLM = {"model.family": "glm", "model.n": 6, "model.p": 12, "model.data_seed": 3,
            "optimizer.kind": "gd", "optimizer.iters": 30, "diag.probe_samples": 6}
TINY_SGD = {"model.family": "glm", "model.n": 5, "model.p": 12, "model.data_seed": 3,
            "optimizer.kind": "sgd", "optimizer.iters": 40, "diag.probe_samples": 6}


def traced(tmp_path, label: str, *args: str) -> dict:
    """Run one CLI command under traced_cli.py and summarize its spans."""
    spans = tmp_path / f"{label}.json"
    subprocess.run([sys.executable, str(run.HERE / "traced_cli.py"), str(spans), label,
                    "--", *args, "--out", str(tmp_path / label), "--quiet"],
                   cwd=tmp_path, env=run.child_env(), check=False, timeout=120)
    trace = json.loads(spans.read_text())
    assert trace["command"] == label
    return tracer.summarize(trace)


def write_config(path, entries: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return str(path)


def test_wrappers_reach_the_names_cli_calls(tmp_path):
    glm = write_config(tmp_path / "glm.cfg", TINY_GLM)
    sgd = write_config(tmp_path / "sgd.cfg", TINY_SGD)

    ran = traced(tmp_path, "run", "run", "--config", glm)
    for name in ("cli.auto_probe_radius", "geometry.probe_spectrum",
                 "descent.run_gd", "bounds.check_gd_theorem", "bounds.closest_optimum_glm",
                 "descent.Trajectory.save"):
        assert ran[f"{name}.calls"] == 1, name
    assert ran["models.jacobian.calls"] > ran["geometry.probe_points"] > 0
    assert ran["models.predictions.calls"] > 0 and ran["models.gradient.calls"] > 0
    assert ran["descent.forward_passes"] > 0 and ran["descent.steps"] > 0

    verified = traced(tmp_path, "verify", "verify", "--config", glm)
    assert verified["geometry.verify_assumptions.calls"] == 1

    drift = traced(tmp_path, "martingale", "sgd-martingale", "--config", sgd)
    assert drift["potentials.exact_conditional_drift.calls"] > 0
    assert drift["potentials.build_packing.calls"] == 1
    assert drift["models.per_sample_gradient.calls"] > 0
    assert drift["descent.run_sgd.calls"] == 1

    lowrank = traced(tmp_path, "lowrank", "experiment-lowrank", "--n", "25", "--iters", "5")
    assert lowrank["cli.auto_tune_lowrank_eta.calls"] == 1
    assert lowrank["cli.auto_tune_lowrank_eta.runs"] >= 1
    assert lowrank["oracle.lowrank_init.calls"] == 1
    assert "geometry.probe_spectrum.calls" not in lowrank


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    sgd = write_config(tmp_path / "sgd.cfg", TINY_SGD)
    first = traced(tmp_path, "a", "sgd-martingale", "--config", sgd)
    second = traced(tmp_path, "b", "sgd-martingale", "--config", sgd)
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts["models.predictions.calls"] > 0
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
