import io
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from overparam import cli, geometry, potentials
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
from overparam.descent import OptimConfig, Trajectory, run_gd
from overparam.geometry import CertificationError, probe_spectrum
from overparam.models import (
    GLMModel,
    LinearModel,
    ShallowNetModel,
    identity_activation,
    tanh_linear,
)
from overparam.oracle import lowrank_init

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


@pytest.mark.parametrize("eta", ["1e300", "1e308"])
@pytest.mark.parametrize("kind, exit_code", [("gd", EXIT_VIOLATION), ("sgd", EXIT_VIOLATION),
                                             ("pl", EXIT_VIOLATION)])
def test_overflowing_first_step_ends_the_run_non_finite(tmp_path, kind, exit_code, eta):
    # At eta = 1e300 the first step overflows only the loss; at 1e308 it overflows
    # theta itself. Both end the run as non_finite at iteration 1, its last row
    # reading loss = misfit = inf, and neither is a parameter error. The run fails
    # its finite_iterates row, so sgd, whose one envelope row still passes, exits 1.
    text = (GLM_RUN.replace("kind = gd", f"kind = {kind}").replace("eta = auto", f"eta = {eta}")
            + "optimizer.seed = 1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", write(tmp_path, "ovf.cfg", text), "--out", str(out),
                     "--quiet"])
    assert code == exit_code
    assert (out / "bounds.csv").read_text().splitlines()[-1] == "finite_iterates,run,inf,fail"
    assert ("[        fail] run/finite_iterates: max violation inf (tolerance 0) -- the loss "
            "or theta overflowed; abort_iter=1\n") in (out / "summary.txt").read_text()
    traj = Trajectory.load(out / "trajectory.csv")
    assert (traj.termination, traj.abort_iter) == ("non_finite", 1)
    assert (traj.loss[-1], traj.misfit[-1]) == (np.inf, np.inf)
    assert np.all(np.isfinite(traj.theta_final)) == (eta == "1e300")


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


@pytest.mark.parametrize("command", ["run", "sgd-martingale"])
def test_anchor_count_above_the_cap_refused_before_any_draw(tmp_path, monkeypatch, capsys,
                                                            command):
    # Rejection sampling and the packing check take O(K^2 p) time.
    def no_draws(*args):
        raise AssertionError("anchors drawn before the capacity check")

    # The probe draws its own points; only the packing's draws are refused.
    monkeypatch.setattr(potentials, "geometry", SimpleNamespace(sample_ball=no_draws))
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd")
                .replace("iters = 2000", "iters = 5") + "diag.anchors = on\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "diag.anchor_count=10001", "--quiet",
                 "--out", str(out)])
    assert code == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        "capacity error: K=10001 anchors exceed enumeration cap 10000\n")
    assert not out.exists()


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


@pytest.mark.parametrize("radius", ["1e154", "1e160", "1e300", "1e308"])
@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
def test_probe_ball_that_overflows_the_jacobian_is_a_certification_failure(
        tmp_path, capsys, command, radius):
    # The factors' squares overflow (at 1e308 the factors themselves), so no Gram of
    # the ball can be bracketed or eigensolved: exit 1 without a numpy warning.
    cfg = write(tmp_path, "ball.cfg", "model.family = lowrank\nmodel.n = 5\nmodel.d = 6\n"
                f"model.r = 2\noptimizer.kind = sgd\ndiag.probe_radius = {radius}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", cfg, "--quiet", "--out", str(out)])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr() == ("", (
        f"certification failure: Jacobian Gram traces overflow in the probe ball of radius "
        f"{float(radius):.10g}; cannot certify a plan\n"))
    assert not out.exists()


@pytest.mark.parametrize("family, radius", [("glm", "1e160"), ("net", "1e160"), ("net", "1e300")])
@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
def test_probe_ball_whose_point_gaps_overflow_is_a_certification_failure(
        tmp_path, capsys, command, family, radius):
    # The Jacobians stay finite but the squared gaps between probe points overflow, which
    # gave L = 0 and a passing smooth check: exit 1 without a numpy warning.
    sizes = {"glm": "model.p = 8\n", "net": "model.d = 8\nmodel.k = 3\n"}[family]
    cfg = write(tmp_path, "ball.cfg", f"model.family = {family}\nmodel.n = 5\n{sizes}"
                f"optimizer.kind = sgd\ndiag.probe_radius = {radius}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", cfg, "--quiet", "--out", str(out)])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr() == ("", (
        f"certification failure: probe point gaps overflow in the probe ball of radius "
        f"{float(radius):.10g}; cannot certify a plan\n"))
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sgd-martingale"])
def test_sgd_step_size_that_rounds_to_zero_is_a_certification_failure(tmp_path, capsys,
                                                                       command):
    # At this radius beta^2 B^2 overflows, so the SGD plan's cap alpha^2 / (nu beta^2 B^2)
    # is 0: exit 1 naming the constants, not a parameter error about the step size.
    cfg = write(tmp_path, "ball.cfg", "model.family = lowrank\nmodel.n = 5\nmodel.d = 6\n"
                "model.r = 2\noptimizer.kind = sgd\ndiag.probe_radius = 1e120\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", cfg, "--quiet", "--out", str(out)])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr() == ("", (
        "certification failure: SGD step-size cap 0.0 is not positive and finite "
        "(alpha=3.36605, beta=7.17553e+120, B=6.37033e+120, nu=8)\n"))
    assert not out.exists()


@pytest.mark.parametrize("command, samples, points, pairs", [
    ("run", 10**15, 10**15 + 1, 2 * 10**15 - 1),
    ("sgd-martingale", 10**15, 10**15 + 1, 2 * 10**15 - 1),
    ("verify", 1024, 513, 131_328),  # verify_assumptions' pairs, before the probe's chain
])
def test_probe_pairs_above_the_budget_refused_before_any_draw(tmp_path, monkeypatch, capsys,
                                                             command, samples, points, pairs):
    def no_draws(*args):
        raise AssertionError("probe points drawn before the pair budget")

    monkeypatch.setattr(geometry, "sample_ball", no_draws)
    cfg = write(tmp_path, "glm.cfg", GLM_RUN.replace("kind = gd", "kind = sgd"))
    out = tmp_path / "out"
    code = main([command, "--config", cfg, f"diag.probe_samples={samples}", "--quiet",
                 "--out", str(out)])
    assert code == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        f"capacity error: diag.probe_samples gives {points} probe points, {pairs} pairs to "
        "search, above the budget of 131072\n")
    assert not out.exists()


def test_glm_gd_run_holds_no_theta_history(tmp_path):
    # The GLM checks see each block of recorded rows and keep only running maxima, so
    # 18,000 more steps add no theta rows (3.2 kB each at p = 400). At stride 10 the
    # trajectory's own columns (80 bytes a recorded row) stay below 0.2 MB.
    cfg = write(tmp_path, "glm.cfg", "model.family = glm\nmodel.n = 20\nmodel.p = 400\n"
                "optimizer.tol = 0\noptimizer.record_every = 10\ndiag.probe_samples = 8\n")
    peaks = {}
    for steps in (2, 2000, 20000):  # the first run takes the one-time allocations
        out = tmp_path / f"out{steps}"
        tracemalloc.start()
        try:
            assert main(["run", "--config", cfg, "--iters", str(steps), "--quiet",
                         "--out", str(out)]) == EXIT_OK
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"termination: max_iters after {steps} iterations" in \
            (out / "summary.txt").read_text()
        assert "null_space_component_drift" in (out / "bounds.csv").read_text()
    assert abs(peaks[20000] - peaks[2000]) < 1 << 20


def zero_row_glm(cfg):
    """A GLM whose zero third row makes every Jacobian singular: alpha is exactly 0."""
    X = np.array([[1.0, 2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 3.0, 0.0, 0.0], np.zeros(5)])
    return GLMModel(X, np.array([1.0, -1.0, 0.5]), tanh_linear(0.3)), np.ones(5)


@pytest.mark.parametrize("kind", ["gd", "sgd", "pl"])
def test_run_with_zero_alpha_is_a_certification_failure(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setattr(cli, "build_model", zero_row_glm)
    cfg = write(tmp_path, "glm.cfg", GLM_RUN.replace("kind = gd", f"kind = {kind}"))
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


def test_rounding_level_alpha0_takes_the_fallback_probe_radius():
    # The zero row makes sigma_min(J(theta0)) zero in exact arithmetic; the SVD
    # returns 2.2e-16 instead, within its own error, not a 2.9e16 probe radius.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 5))
    X[0] = 0.0
    y, theta0 = rng.standard_normal(3), rng.standard_normal(5) / np.sqrt(5.0)
    model = GLMModel(X, y, tanh_linear(0.3))
    assert np.linalg.svd(model.jacobian(theta0), compute_uv=False)[-1] > 0.0
    cfg = parse_config_text(GLM_RUN)
    radius = cli.auto_probe_radius(cfg, model, theta0, model.misfit(theta0))
    assert radius == 0.1 * (1.0 + float(np.linalg.norm(theta0)))


@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale"])
@pytest.mark.parametrize("override", [
    "optimizer.record_every=0", "diag.probe_samples=0", "optimizer.eta=nan",
    "optimizer.eta=inf", "optimizer.eta=0", "optimizer.tol=-1e-9", "optimizer.tol=inf",
    "diag.probe_radius=0", "diag.probe_radius=nan", "diag.anchor_count=0",
    "model.n=0", "model.p=-1", "model.activation=cubic", "model.activation_scale=1.5",
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


def test_out_dir_order_flag_then_config_then_env_then_cwd(tmp_path, monkeypatch):
    flag_dir, cfg_dir, env_dir, cwd = (tmp_path / name for name in ("flag", "cfg", "env", "cwd"))
    with_dir = write(tmp_path, "dir.cfg", IDENTITY_LINEAR + f"output.dir = {cfg_dir}\n")
    without_dir = write(tmp_path, "id.cfg", IDENTITY_LINEAR)
    monkeypatch.setenv("OVERPARAM_OUT_DIR", str(env_dir))
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    def written():
        return [d for d in (flag_dir, cfg_dir, env_dir, cwd) if (d / "summary.txt").exists()]

    for argv, expected in (
        (["--config", with_dir, "--out", str(flag_dir)], flag_dir),
        (["--config", with_dir], cfg_dir),
        (["--config", without_dir], env_dir),
    ):
        assert main(["run", *argv, "--quiet"]) == EXIT_OK
        assert written() == [expected]
        (expected / "summary.txt").unlink()
    monkeypatch.delenv("OVERPARAM_OUT_DIR")
    assert main(["run", "--config", without_dir, "--quiet"]) == EXIT_OK
    assert written() == [cwd]


@pytest.mark.parametrize("command", ["run", "verify", "sgd-martingale", "lower-bound",
                                     "experiment-lowrank"])
def test_unmakeable_out_refused_before_any_work(tmp_path, monkeypatch, capsys, command):
    def no_instance(*args):
        raise AssertionError("instance built before the output directory was checked")

    for owner, name in ((cli, "build_model"), (cli, "lowrank_instances"),
                        (cli.bnd, "make_lower_bound_instance")):
        monkeypatch.setattr(owner, name, no_instance)
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd"))
    argv = {"lower-bound": ["--alpha", "1", "--beta", "2"],
            "experiment-lowrank": ["--n", "25"]}.get(command, ["--config", cfg])
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    assert main([command, *argv, "--out", str(out)]) == EXIT_CAPACITY
    assert capsys.readouterr() == ("", f"io error: [Errno 20] Not a directory: '{out}'\n")


def test_a_command_that_raises_after_its_checks_writes_nothing(tmp_path, monkeypatch, capsys):
    tune = cli.auto_tune_lowrank_eta

    def fail_at_two_sizes(model, theta0):
        if model.n in (50, 200):
            raise CertificationError(f"deliberate fault at n={model.n}")
        return tune(model, theta0)

    monkeypatch.setattr(cli, "auto_tune_lowrank_eta", fail_at_two_sizes)
    out = tmp_path / "out"
    code = main(["experiment-lowrank", "--n", "all", "--iters", "5", "--out", str(out)])
    assert code == EXIT_VIOLATION
    # The sizes run two at a time in no fixed order; the smallest failing size reports.
    assert capsys.readouterr() == ("", "certification failure: deliberate fault at n=50\n")
    assert not out.exists()


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


def test_net_step_size_with_zero_curvature_is_the_base_rule():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 6))
    model = ShallowNetModel(X, rng.standard_normal(4), np.array([0.6, 0.8]),
                            identity_activation())
    spec_norm = np.linalg.svd(X, compute_uv=False)[0]
    assert net_step_size(model, rng.standard_normal(12)) == 1.0 / (2.0 * spec_norm**2)


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
    (model, theta0), = cli.lowrank_instances([100], seed=0)
    assert float(np.linalg.norm(model.y)) == 10.0
    assert set(np.unique(model.y)) <= {-1.0, 1.0}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("d, r", [(1, 1), (3, 2), (6, 4)])
def test_lowrank_instances_draw_each_size_as_its_own_generator_would(seed, d, r):
    sizes = [9, 1, 4, 4, 2]
    got = cli.lowrank_instances(sizes, seed, d, r)
    assert len(got) == len(sizes)
    for n, (model, theta0) in zip(sizes, got):
        rng = np.random.default_rng(seed)
        Xs = rng.standard_normal((n, d, d))
        y = rng.integers(0, 2, size=n) * 2.0 - 1.0
        assert (model.n, model.d, model.r) == (n, d, r)
        assert np.array_equal(model.Xs, Xs) and np.array_equal(model.y, y)
        assert np.array_equal(theta0, lowrank_init(d, r, n, float(np.linalg.norm(y)), seed=seed))
        assert np.shares_memory(model.Xs, got[0][0].Xs)  # prefixes of the one draw


def _one_size_at_a_time(n, seed, iters):
    (model, theta0), = cli.lowrank_instances([n], seed)
    eta, c1 = cli.auto_tune_lowrank_eta(model, theta0)
    return run_gd(model, theta0, OptimConfig(eta=eta, max_iters=iters)), eta, c1


def _csv(traj):
    stream = io.StringIO()
    traj.to_csv(stream)
    return stream.getvalue()


@pytest.mark.parametrize("sizes", [[25], [5, 3], [2, 7, 5, 11]])
def test_lowrank_study_matches_one_size_at_a_time(sizes):
    study = cli.run_lowrank_study(sizes, seed=3, iters=5)
    assert len(study) == len(sizes)
    for n, (traj, eta, c1) in zip(sizes, study):
        alone, alone_eta, alone_c1 = _one_size_at_a_time(n, 3, 5)
        assert (eta, c1) == (alone_eta, alone_c1)
        assert _csv(traj) == _csv(alone)
        assert np.array_equal(traj.theta_final, alone.theta_final)


def test_lowrank_study_leaves_no_thread_alive(monkeypatch):
    before, tune = set(threading.enumerate()), cli.auto_tune_lowrank_eta
    threads, failing = set(), None

    def tune_and_record(model, theta0):
        threads.add(threading.get_ident())
        if model.n == failing:
            raise CertificationError(f"deliberate fault at n={model.n}")
        return tune(model, theta0)

    monkeypatch.setattr(cli, "auto_tune_lowrank_eta", tune_and_record)
    assert len(cli.run_lowrank_study([3, 5, 2], seed=0, iters=2)) == 3
    assert set(threading.enumerate()) == before
    assert len(threads - {threading.get_ident()}) <= 1  # the caller and one other thread
    failing = 2
    with pytest.raises(CertificationError, match="at n=2$"):
        cli.run_lowrank_study([3, 5, 2], seed=0, iters=2)
    assert set(threading.enumerate()) == before


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


@pytest.mark.parametrize("argv, message", [
    (["lower-bound", "--alpha", "0", "--beta", "1"], "--alpha must be > 0, got 0"),
    (["lower-bound", "--alpha", "x", "--beta", "1"],
     "--alpha must be a finite number > 0, got 'x'"),
    (["lower-bound", "--alpha", "1", "--beta", "inf"],
     "--beta must be a finite number > 0, got 'inf'"),
    (["lower-bound", "--alpha", "2", "--beta", "1"],
     "--beta must be >= --alpha, got alpha=2, beta=1"),
    (["lower-bound", "--alpha", "1", "--beta", "2", "--p", "1"], "--p must be >= 2, got 1"),
    (["lower-bound", "--alpha", "1", "--beta", "2", "--iters", "0"],
     "--iters must be >= 1, got 0"),
    (["experiment-lowrank", "--n", "25", "--iters", "0"], "--iters must be >= 1, got 0"),
    (["experiment-lowrank", "--n", "25", "--iters", "2.5"],
     "--iters must be an integer >= 1, got '2.5'"),
    (["experiment-lowrank", "--n", "25", "--seed", "x"],
     "--seed must be an integer >= 0, got 'x'"),
    (["experiment-lowrank", "--n", "x"], "experiment-lowrank supports n in {25, 50, 100, 200}"),
], ids=["lb-alpha-0", "lb-alpha-x", "lb-beta-inf", "lb-beta-below-alpha", "lb-p-1",
        "lb-iters-0", "lowrank-iters-0", "lowrank-iters-2.5", "lowrank-seed-x", "lowrank-n-x"])
def test_flag_refusals_come_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    def no_instance(*args, **kwargs):
        raise AssertionError("instance built before the flags were checked")

    monkeypatch.setattr(cli.bnd, "make_lower_bound_instance", no_instance)
    monkeypatch.setattr(cli, "lowrank_instances", no_instance)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
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


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-3", "optimizer.seed must be >= 0, got -3"),
    ("--seed", "x", "optimizer.seed must be an integer, got 'x'"),
    ("--iters", "2.5", "optimizer.iters must be an integer, got '2.5'"),
    ("--nu", "two", "diag.nu must be a number, got 'two'"),
    ("--lambda", "1.5", "diag.lambda must be in (0, 1], got 1.5"),
    ("--eta", "0", "optimizer.eta must be a finite number > 0 or 'auto', got 0.0"),
], ids=["seed-negative", "seed-x", "iters-fraction", "nu-two", "lambda-1.5", "eta-0"])
def test_seed_flag_refuses_a_negative_optimizer_seed(tmp_path, capsys, flag, value, message):
    # Flags are aliases of config keys: a bad value is a config error naming the key.
    cfg = write(tmp_path, "sgd.cfg", GLM_RUN.replace("kind = gd", "kind = sgd"))
    code = main(["run", "--config", cfg, flag, value, "--quiet",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_flags_win_over_positional_overrides(tmp_path):
    cfg = write(tmp_path, "glm.cfg", GLM_RUN)
    args = cli.build_parser().parse_args([
        "run", "--config", cfg, "optimizer.seed=1", "diag.nu=4", "--seed", "2", "--nu", "5",
        "--iters", "7", "--lambda", "0.25", "--eta", "0.125"])
    loaded = cli._load_with_overrides(args)
    assert (loaded.opt_seed, loaded.nu, loaded.iters, loaded.lam, loaded.eta) == (
        2, 5.0, 7, 0.25, 0.125)


def test_sgd_martingale_command(tmp_path):
    cfg = write(tmp_path, "sgd.cfg", SGD_IDENTITY)
    out = tmp_path / "mart"
    code = main(["sgd-martingale", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    lines = (out / "martingale.csv").read_text().splitlines()
    assert lines[0] == "iter,in_half_ball,drift_misfit,drift_dist,drift_potential"
    drifts = [float(line.split(",")[4]) for line in lines[1:] if line.split(",")[1] == "1"]
    assert drifts and max(drifts) <= 1e-12


def test_sgd_martingale_rows_outside_the_half_ball(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, "sgd.cfg", SGD_IDENTITY)
    # Every other recorded state counts as outside the half ball.
    monkeypatch.setattr(cli, "in_working_ball", lambda dist, *rest: np.arange(len(dist)) % 2 == 0)
    out = tmp_path / "half"
    assert main(["sgd-martingale", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    rows = (out / "martingale.csv").read_text().splitlines()[1:]
    assert len(rows) == 61
    assert rows[1::2] == [f"{i},0,,," for i in range(1, 61, 2)]
    assert all(row.split(",")[1] == "1" and row.split(",")[4] for row in rows[::2])

    monkeypatch.setattr(cli, "in_working_ball", lambda dist, *rest: np.zeros(len(dist), bool))
    out = tmp_path / "none"
    assert main(["sgd-martingale", "--config", cfg, "--out", str(out)]) == EXIT_VIOLATION
    assert capsys.readouterr().out.startswith("checked 0/61 states inside the half ball; ")
    rows = (out / "martingale.csv").read_text().splitlines()[1:]
    assert rows == [f"{i},0,,," for i in range(61)]


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
