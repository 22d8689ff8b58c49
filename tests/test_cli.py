import numpy as np
import pytest

from overparam.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    build_model,
    main,
    net_step_size,
)
from overparam.config import parse_config_text
from overparam.descent import Trajectory
from overparam.geometry import probe_spectrum
from overparam.models import LinearModel

IDENTITY_LINEAR = """\
model.family = linear
model.identity = on
model.n = 1
model.p = 1
optimizer.kind = gd
optimizer.eta = 0.5
optimizer.iters = 12
optimizer.tol = 0
"""

GLM_RUN = """\
model.family = glm
model.n = 20
model.p = 50
model.activation = tanh_linear
model.activation_scale = 0.3
model.data_seed = 3
optimizer.kind = gd
optimizer.eta = auto
optimizer.iters = 2000
"""

SGD_IDENTITY = """\
model.family = linear
model.identity = on
model.n = 2
model.p = 2
optimizer.kind = sgd
optimizer.eta = auto
optimizer.iters = 60
optimizer.seed = 4
diag.nu = 8
diag.anchors = on
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_identity_linear_halves_misfit(tmp_path):
    cfg = write(tmp_path, "id.cfg", IDENTITY_LINEAR)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    traj = Trajectory.load(out / "trajectory.csv")
    expected = 0.5 ** np.arange(len(traj.iters)) * traj.misfit0
    assert np.array_equal(traj.misfit, expected)
    assert (out / "bounds.csv").exists()
    assert (out / "summary.txt").exists()


def test_run_glm_pipeline_passes(tmp_path):
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    out = tmp_path / "glm_out"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    bounds_csv = (out / "bounds.csv").read_text()
    assert "fail" not in bounds_csv.replace("inconclusive", "")


def test_run_violated_step_size_fails(tmp_path):
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    out = tmp_path / "bad_out"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet",
                 "--eta", "5.0", "--iters", "300"])
    assert code == EXIT_VIOLATION
    assert ",fail" in (out / "bounds.csv").read_text()


def test_run_byte_identical_outputs(tmp_path):
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == EXIT_OK
    for name in ("trajectory.csv", "bounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_error_exit_code(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "model.family = glm\nmodel.bogus = 1\n")
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG


def test_capacity_error_exit_code(tmp_path):
    cfg = write(
        tmp_path, "big.cfg",
        "model.family = linear\nmodel.n = 3000\nmodel.p = 2000\n"
        "optimizer.kind = gd\noptimizer.eta = 0.001\noptimizer.iters = 1\n",
    )
    assert main(["run", "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "cap")]) == EXIT_CAPACITY


@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
def test_capacity_refused_before_any_jacobian(tmp_path, monkeypatch, command):
    def no_dense_jacobian(self, theta):
        raise AssertionError("dense Jacobian formed before the capacity check")

    monkeypatch.setattr(LinearModel, "jacobian", no_dense_jacobian)
    cfg = write(
        tmp_path, "big.cfg",
        "model.family = linear\nmodel.n = 3000\nmodel.p = 2000\n"
        "optimizer.kind = sgd\noptimizer.eta = 0.001\noptimizer.iters = 1\n",
    )
    assert main([command, "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "cap")]) == EXIT_CAPACITY


def test_out_dir_env_default(tmp_path, monkeypatch):
    cfg = write(tmp_path, "id.cfg", IDENTITY_LINEAR)
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("OVERPARAM_OUT_DIR", str(env_dir))
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
    assert (env_dir / "trajectory.csv").exists()


def test_verify_identity_linear(tmp_path):
    cfg = write(tmp_path, "id.cfg", IDENTITY_LINEAR)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    text = (out / "verify.txt").read_text()
    assert "alpha=1" in text
    assert "bounded-deviation: pass" in text


def test_verify_glm_small_radius_bounded(tmp_path):
    cfg = write(
        tmp_path, "glm_v.cfg",
        GLM_RUN + "diag.probe_radius = 0.01\n",
    )
    out = tmp_path / "vg"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    assert "bounded-deviation: pass" in (out / "verify.txt").read_text()


def test_verify_net_formula_brackets_probe():
    cfg = parse_config_text(
        "model.family = net\nmodel.n = 6\nmodel.d = 16\nmodel.k = 4\n"
        "model.activation = tanh_linear\nmodel.activation_scale = 0.3\n"
    )
    model, theta0 = build_model(cfg)
    sv = np.linalg.svd(model.X, compute_uv=False)
    act = model.act
    b = probe_spectrum(model, theta0, radius=0.05, samples=32, seed=0)
    assert b.alpha >= act.gamma * sv[-1] * 0.95
    assert b.beta <= act.big_gamma * sv[0] * 1.05
    assert net_step_size(model, theta0) > 0


def test_lower_bound_command_tight_upper(tmp_path):
    out = tmp_path / "lb"
    code = main(["lower-bound", "--alpha", "1", "--beta", "2", "--p", "2",
                 "--mode", "tight-upper", "--iters", "2000",
                 "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    report = (out / "lower_bound_tight-upper_report.txt").read_text()
    assert "max deviation" in report


def test_lower_bound_command_degenerate_alpha_equals_beta(tmp_path):
    code = main(["lower-bound", "--alpha", "1", "--beta", "1", "--p", "2",
                 "--mode", "tight-lower", "--iters", "500",
                 "--out", str(tmp_path / "lb2"), "--quiet"])
    assert code == EXIT_OK


def test_lower_bound_command_rejects_bad_order(tmp_path):
    code = main(["lower-bound", "--alpha", "2", "--beta", "1",
                 "--out", str(tmp_path / "lb3"), "--quiet"])
    assert code == EXIT_CONFIG


def test_lowrank_instance_rademacher_norm():
    from overparam.cli import lowrank_instance

    model, theta0 = lowrank_instance(100, seed=0)
    assert float(np.linalg.norm(model.y)) == 10.0
    assert set(np.unique(model.y)) <= {-1.0, 1.0}


def test_experiment_lowrank_command(tmp_path):
    out = tmp_path / "lr"
    code = main(["experiment-lowrank", "--n", "25", "--seed", "0", "--iters", "5",
                 "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    assert (out / "lowrank_n25_seed0.csv").exists()
    assert "c1=" in (out / "lowrank_summary_seed0.txt").read_text()


def test_sgd_martingale_command(tmp_path):
    cfg = write(tmp_path, "sgd.cfg", SGD_IDENTITY)
    out = tmp_path / "mart"
    code = main(["sgd-martingale", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    lines = (out / "martingale.csv").read_text().splitlines()
    assert lines[0] == "iter,in_half_ball,drift_misfit,drift_dist,drift_potential"
    drifts = [float(line.split(",")[4]) for line in lines[1:] if line.split(",")[1] == "1"]
    assert drifts and max(drifts) <= 1e-12


def test_run_lowrank_pipeline(tmp_path):
    cfg = write(
        tmp_path, "lr.cfg",
        "model.family = lowrank\nmodel.n = 6\nmodel.d = 12\nmodel.r = 2\n"
        "model.data_seed = 5\noptimizer.kind = gd\noptimizer.iters = 400\n"
        "diag.probe_samples = 16\n",
    )
    out = tmp_path / "lr_out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    assert "c1=" in (out / "summary.txt").read_text()


def test_run_net_pipeline(tmp_path):
    cfg = write(
        tmp_path, "net.cfg",
        "model.family = net\nmodel.n = 5\nmodel.d = 14\nmodel.k = 3\n"
        "model.data_seed = 6\noptimizer.kind = gd\noptimizer.iters = 600\n"
        "diag.probe_samples = 16\n",
    )
    out = tmp_path / "net_out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK


def test_run_pl_pipeline(tmp_path):
    cfg = write(
        tmp_path, "pl.cfg",
        "model.family = linear\nmodel.n = 2\nmodel.p = 4\nmodel.data_seed = 9\n"
        "optimizer.kind = pl\noptimizer.iters = 400\n",
    )
    out = tmp_path / "pl_out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    text = (out / "bounds.csv").read_text()
    assert "loss_envelope,pl" in text and ",fail" not in text
    assert "gradient-dominance check: pass" in (out / "summary.txt").read_text()


def test_run_sgd_pipeline_with_anchors(tmp_path):
    cfg = write(tmp_path, "sgd.cfg", SGD_IDENTITY)
    out = tmp_path / "sgd_out"
    code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    traj = Trajectory.load(out / "trajectory.csv")
    assert np.all(np.isfinite(traj.sgd_potential))  # anchored potential recorded
    assert "exit from half ball" in (out / "summary.txt").read_text()
    from overparam.potentials import load_packing

    pack = load_packing(out / "anchors.txt")
    assert pack.K >= 2  # ceil(sqrt(2) * beta/alpha) anchors
