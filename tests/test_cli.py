import warnings

import numpy as np
import pytest

from overparam import cli
from overparam.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VIOLATION,
    build_model,
    main,
    net_step_size,
)
from overparam.config import parse_config_text
from overparam.descent import Trajectory
from overparam.geometry import probe_spectrum
from overparam.models import GLMModel, LinearModel, tanh_linear

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


def test_divergent_glm_run_checks_without_warnings(tmp_path):
    # the iterates overflow, so the GLM distance checks see inf and nan rows
    cfg = write(tmp_path, "div.cfg", GLM_RUN.replace("data_seed = 3", "data_seed = 0")
                .replace("eta = auto", "eta = 50"))
    out = tmp_path / "div_out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_VIOLATION
    text = (out / "bounds.csv").read_text()
    assert "distance_to_optimum_envelope,glm,inf,fail" in text


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
    def no_factors(self, theta):
        raise AssertionError("Jacobian factors formed before the capacity check")

    monkeypatch.setattr(LinearModel, "factors", no_factors)  # every Jacobian goes through them
    cfg = write(
        tmp_path, "big.cfg",
        "model.family = linear\nmodel.n = 3000\nmodel.p = 2000\n"
        "optimizer.kind = sgd\noptimizer.eta = 0.001\noptimizer.iters = 1\n",
    )
    assert main([command, "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "cap")]) == EXIT_CAPACITY


@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
def test_tall_model_refused_before_any_jacobian(tmp_path, monkeypatch, capsys, command):
    # n > p: J J^T is singular, so alpha = 0 whatever the probe would find.
    built = []
    monkeypatch.setattr(GLMModel, "factors", lambda self, theta: built.append(theta))
    tall = GLM_RUN.replace("model.n = 20", "model.n = 600").replace("model.p = 50", "model.p = 20")
    cfg = write(tmp_path, "tall.cfg", tall.replace("kind = gd", "kind = sgd"))
    code = main([command, "--config", cfg, "--quiet", "--out", str(tmp_path / "out")])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "certification failure: n = 600 samples exceed p = 20 parameters, so J J^T is "
        "singular and alpha = 0; cannot certify a plan\n")
    assert built == []


def zero_row_glm(cfg):
    """A GLM whose zero third row makes every Jacobian singular: alpha is exactly 0."""
    X = np.array([[1.0, 2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 3.0, 0.0, 0.0], np.zeros(5)])
    return GLMModel(X, np.array([1.0, -1.0, 0.5]), tanh_linear(0.3)), np.ones(5)


def test_run_with_zero_alpha_is_a_certification_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_model", zero_row_glm)
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    code = main(["run", "--config", cfg, "--quiet", "--out", str(tmp_path / "out")])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "certification failure: probed alpha is zero; cannot certify a plan\n")


def test_verify_with_zero_alpha_reports_no_plan(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_model", zero_row_glm)
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    out = tmp_path / "out"
    main(["verify", "--config", cfg, "--quiet", "--out", str(out)])
    text = (out / "verify.txt").read_text()
    assert "plan unavailable: probed alpha is zero; cannot certify a plan\n" in text
    # alpha(theta0) is 0 too, so the probe ball falls back to 0.1 (1 + ||theta0||).
    assert f"\nradius={0.1 * (1.0 + np.sqrt(5.0)):.17g}\n" in text


@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
@pytest.mark.parametrize("override", [
    "optimizer.record_every=0", "diag.probe_samples=0", "optimizer.eta=nan",
    "optimizer.eta=inf", "optimizer.eta=0", "optimizer.tol=-1e-9", "optimizer.tol=inf",
    "diag.probe_radius=0", "diag.probe_radius=nan", "diag.anchor_count=0",
])
def test_out_of_range_values_refused_before_any_jacobian(tmp_path, monkeypatch, capsys,
                                                         command, override):
    def no_factors(self, theta):
        raise AssertionError("Jacobian factors formed before the config was checked")

    monkeypatch.setattr(GLMModel, "factors", no_factors)
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd"))
    code = main([command, "--config", cfg, override, "--quiet",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: " + override.split("=")[0] + " must be ")


@pytest.mark.parametrize("command, kind", [
    ("run", "sgd"), ("verify", "gd"), ("verify", "sgd"), ("sgd-martingale", "sgd")])
@pytest.mark.parametrize("nu", ["2", "nan", "inf"])
def test_bad_nu_refused_before_any_jacobian(tmp_path, monkeypatch, capsys, command, kind, nu):
    built = []
    monkeypatch.setattr(GLMModel, "factors", lambda self, theta: built.append(theta))
    cfg = write(tmp_path, "nu.cfg", GLM_RUN.replace("kind = gd", f"kind = {kind}"))
    code = main([command, "--config", cfg, f"diag.nu={nu}", "--quiet",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: diag.nu must be ")
    assert built == []


def test_gd_run_does_not_read_nu(tmp_path):
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    assert main(["run", "--config", cfg, "diag.nu=2", "--quiet",
                 "--out", str(tmp_path / "out")]) == EXIT_OK


def test_auto_overrides_an_explicit_number(tmp_path):
    cfg = write(tmp_path, "glm.cfg", GLM_RUN.replace("eta = auto", "eta = 0.5"))
    parser = cli.build_parser()
    assert cli._load_with_overrides(parser.parse_args(["run", "--config", cfg])).eta == 0.5
    for extra in (["--eta", "auto"], ["optimizer.eta=auto"]):
        args = parser.parse_args(["run", "--config", cfg, *extra])
        assert cli._load_with_overrides(args).eta is None


def test_sgd_step_size_above_the_cap_is_reported(tmp_path):
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd")
                .replace("eta = auto", "eta = 0.5").replace("iters = 2000", "iters = 50"))
    run_out, mart_out = tmp_path / "run", tmp_path / "mart"
    assert main(["run", "--config", cfg, "--out", str(run_out), "--quiet"]) == EXIT_OK
    summary = (run_out / "summary.txt").read_text()
    assert "warning: run step size 0.5 exceeds the certified cap " in summary
    cap = float(summary.split("plan: ")[1].split()[1][len("eta="):])
    assert f"certified cap {cap:.6g};" in summary
    main(["sgd-martingale", "--config", cfg, "--out", str(mart_out), "--quiet"])
    lines = (mart_out / "martingale_summary.txt").read_text().splitlines()
    assert lines[0].startswith("checked ") and len(lines) == 2
    assert lines[1].startswith(
        "requested step size 0.5 exceeds the certified cap; ran at the cap ")
    assert float(lines[1].rsplit(" ", 1)[1]) == pytest.approx(cap, rel=1e-9)


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("deliberate fault")

    monkeypatch.setattr(cli, "cmd_run", broken)
    cfg = write(tmp_path, "id.cfg", IDENTITY_LINEAR)
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: deliberate fault\n")
    assert "Traceback" in err and "RuntimeError" in err


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


@pytest.mark.parametrize("mode", ["tight-upper", "tight-lower"])
def test_lower_bound_command_tight_upper(tmp_path, mode):
    slope = {"tight-upper": 2.0, "tight-lower": 1.0}[mode]  # beta, alpha
    out = tmp_path / "lb"
    code = main(["lower-bound", "--alpha", "1", "--beta", "2", "--p", "2",
                 "--mode", mode, "--iters", "2000",
                 "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    report = (out / f"lower_bound_{mode}_report.txt").read_text()
    traj = Trajectory.load(out / f"lower_bound_{mode}.csv")
    deviation = float(np.max(np.abs(traj.misfit + slope * traj.dist_init - traj.misfit0)))
    assert report == (
        f"alpha=1 beta=2 p=2 mode={mode}\n"
        f"max deviation from the tradeoff line: {deviation:.17g} "
        f"(tolerance {1e-8 * traj.misfit0:.6g})\n"
    )


def test_lower_bound_command_degenerate_alpha_equals_beta(tmp_path):
    code = main(["lower-bound", "--alpha", "1", "--beta", "1", "--p", "2",
                 "--mode", "tight-lower", "--iters", "500",
                 "--out", str(tmp_path / "lb2"), "--quiet"])
    assert code == EXIT_OK


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "0", "-1", "fast"])
def test_lower_bound_refuses_a_bad_step_size_before_building(tmp_path, monkeypatch, capsys,
                                                             eta):
    def no_instance(*args):
        raise AssertionError("instance built before --eta was checked")

    monkeypatch.setattr(cli.bnd, "make_lower_bound_instance", no_instance)
    code = main(["lower-bound", "--alpha", "1", "--beta", "2", "--iters", "20",
                 f"--eta={eta}", "--out", str(tmp_path / "lb"), "--quiet"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --eta must be ")


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


def test_experiment_lowrank_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "lr"
    code = main(["experiment-lowrank", "--n", "25", "--seed", "-1", "--iters", "5",
                 "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
@pytest.mark.parametrize("override", ["optimizer.seed=-3", "model.data_seed=-3"])
def test_negative_seeds_refused_before_any_jacobian(tmp_path, monkeypatch, capsys,
                                                    command, override):
    built = []
    monkeypatch.setattr(GLMModel, "factors", lambda self, theta: built.append(theta))
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd"))
    code = main([command, "--config", cfg, override, "--quiet",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    key = override.split("=")[0]
    assert capsys.readouterr().err == f"config error: {key} must be >= 0, got -3\n"
    assert built == []


def test_seed_flag_refuses_a_negative_optimizer_seed(tmp_path, capsys):
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd"))
    code = main(["run", "--config", cfg, "--seed", "-3", "--quiet",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: optimizer.seed must be >= 0, got -3\n"


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


def test_pl_summary_names_only_the_pl_step_size(tmp_path):
    cfg = write(
        tmp_path, "pl_glm.cfg",
        "model.family = glm\nmodel.n = 20\nmodel.p = 60\n"
        "optimizer.kind = pl\noptimizer.iters = 200\n",
    )
    out = tmp_path / "pl_glm_out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    eta_lines = [line for line in (out / "summary.txt").read_text().splitlines()
                 if line.startswith("eta=")]
    assert len(eta_lines) == 1 and "(pl rule 1/(2 beta^2))" in eta_lines[0]
    assert f"# eta={eta_lines[0].split()[0][len('eta='):]}" in (
        out / "trajectory.csv").read_text().splitlines()


@pytest.mark.parametrize("kind, tunes", [("gd", 1), ("pl", 0)])
def test_pl_on_lowrank_skips_the_gd_step_probe(tmp_path, monkeypatch, kind, tunes):
    calls = []
    tune = cli.auto_tune_lowrank_eta

    def spy(*args, **kwargs):
        calls.append(args)
        return tune(*args, **kwargs)

    monkeypatch.setattr(cli, "auto_tune_lowrank_eta", spy)
    cfg = write(
        tmp_path, "lr.cfg",
        "model.family = lowrank\nmodel.n = 6\nmodel.d = 12\nmodel.r = 2\n"
        f"model.data_seed = 5\noptimizer.kind = {kind}\noptimizer.iters = 50\n"
        "diag.probe_samples = 16\n",
    )
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code in (EXIT_OK, EXIT_VIOLATION)
    assert len(calls) == tunes


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


@pytest.mark.parametrize("kind, note", [("gd", "linear rule 1/(2 ||X||^2)"),
                                        ("pl", "pl rule 1/L")])
def test_linear_step_rules_come_before_the_glm_rule(kind, note):
    # LinearModel is a GLMModel; the glm rule would give 1/||X||^2 instead.
    cfg = parse_config_text(
        f"model.family = linear\nmodel.n = 8\nmodel.p = 20\noptimizer.kind = {kind}\n"
        "diag.probe_samples = 8\n"
    )
    model, theta0, _, bounds = cli.prepare(cfg)
    eta, eta_note = cli.resolve_eta(cfg, model, theta0, bounds)
    assert eta_note == note
    if kind == "gd":
        assert eta == 1.0 / (2.0 * np.linalg.norm(model.X, 2) ** 2)
    else:
        assert eta == 1.0 / bounds.beta**2
