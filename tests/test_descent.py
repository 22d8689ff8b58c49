import io
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from overparam.bounds import make_lower_bound_instance
from overparam.descent import (
    GeneralLoss,
    OptimConfig,
    Trajectory,
    default_tolerance,
    local_pl_check,
    model_loss,
    run_gd,
    run_pl_gd,
    run_sgd,
    sgd_index_stream,
)
from overparam.models import GLMModel, LinearModel, tanh_linear
from overparam.oracle import average_jacobian, enumerate_sgd_expectation, fd_gradient
from overparam.potentials import AnchorSet, build_packing

from conftest import model_zoo


# ---------------------------------------------------------------------------
# run_gd
# ---------------------------------------------------------------------------

def test_gd_scalar_contraction():
    m = LinearModel(np.eye(1), np.zeros(1))
    traj = run_gd(m, np.ones(1), OptimConfig(eta=0.5, max_iters=8))
    assert_allclose(traj.misfit, 0.5 ** np.arange(9), rtol=0, atol=0)
    # squared-misfit ratio 0.25 per step stays below the certified rate 0.75
    ratios = traj.misfit[1:] ** 2 / traj.misfit[:-1] ** 2
    assert np.all(ratios <= 0.75)


def test_gd_lower_bound_construction_tracks_line():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    traj = run_gd(model, theta0, OptimConfig(eta=0.5 / 4.0, max_iters=500))
    line = traj.misfit + 2.0 * traj.dist_init
    assert np.max(np.abs(line - traj.misfit0)) <= 1e-8 * traj.misfit0


def test_gd_deterministic_bitwise():
    zoo = model_zoo(3)
    model, theta = zoo["glm"]
    cfg = OptimConfig(eta=0.01, max_iters=50)
    t1 = run_gd(model, theta, cfg)
    t2 = run_gd(model, theta, cfg)
    assert np.array_equal(t1.misfit, t2.misfit)
    assert np.array_equal(t1.theta_final, t2.theta_final)


@pytest.mark.parametrize("name", ["linear", "glm", "lowrank", "net"])
def test_gd_monotone_loss_under_safe_step(name):
    model, theta = model_zoo(11)[name]
    J = model.jacobian(theta)
    eta = 1.0 / np.linalg.norm(J, 2) ** 2 / 4.0
    traj = run_gd(model, theta, OptimConfig(eta=eta, max_iters=60))
    assert np.all(np.diff(traj.loss) <= 1e-12 * np.maximum(traj.loss[:-1], 1.0))


def test_gd_stationary_exit():
    # residual orthogonal to the column space: gradient is exactly zero
    m = LinearModel(np.zeros((1, 2)), np.array([1.0]))
    traj = run_gd(m, np.zeros(2), OptimConfig(eta=0.5, max_iters=10))
    assert traj.termination == "stationary"
    assert traj.misfit[-1] == 1.0


def test_gd_stationary_exit_records_final_state_under_stride():
    # gradient vanishes exactly once the residual projects to zero; with a
    # thinned recording stride the last state must still land in the rows
    m = LinearModel(np.zeros((1, 2)), np.array([1.0]))
    traj = run_gd(m, np.zeros(2), OptimConfig(eta=0.5, max_iters=10, record_every=4))
    assert traj.termination == "stationary"
    assert int(traj.iters[-1]) == 0  # stationary immediately, start row kept once


def test_gd_tolerance_exit():
    m = LinearModel(np.eye(1), np.zeros(1))
    traj = run_gd(m, np.ones(1), OptimConfig(eta=0.5, max_iters=500,
                                             tol_misfit=default_tolerance(m.y)))
    assert traj.termination == "tol"
    assert traj.misfit[-1] <= 1e-10 * 1.0 + 1e-30


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
def test_optim_config_needs_a_finite_positive_step_size(eta):
    with pytest.raises(ValueError, match="step size must be finite and positive"):
        OptimConfig(eta=eta, max_iters=1)


def test_gd_non_finite_abort():
    m = LinearModel(np.eye(1) * 10.0, np.zeros(1))
    traj = run_gd(m, np.ones(1), OptimConfig(eta=1e6, max_iters=2000))
    assert traj.termination == "non_finite"
    assert traj.abort_iter is not None
    assert np.all(np.isfinite(traj.misfit[:-1]))


def test_divergent_runs_end_non_finite_without_warnings():
    m = LinearModel(np.eye(1) * 10.0, np.zeros(1))
    loss_fn = GeneralLoss(value=m.loss, grad=m.gradient)
    cfg = OptimConfig(eta=1e6, max_iters=2000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trajs = [run_gd(m, np.ones(1), cfg), run_sgd(m, np.ones(1), cfg),
                 run_pl_gd(loss_fn, np.ones(1), cfg, mu=1.0)]
    for traj in trajs:
        assert traj.termination == "non_finite"
        assert traj.abort_iter is not None


def test_trajectory_path_geometry_invariants():
    model, theta = model_zoo(5)["net"]
    eta = 0.5 / np.linalg.norm(model.jacobian(theta), 2) ** 2
    traj = run_gd(model, theta, OptimConfig(eta=eta, max_iters=80))
    assert np.all(np.diff(traj.path_len) >= 0)
    assert np.all(traj.path_len >= traj.dist_init - 1e-12)
    assert_allclose(traj.norm_misfit, traj.misfit / traj.misfit0, rtol=0)


def test_record_every_thins_rows_but_keeps_final():
    m = LinearModel(np.eye(1), np.zeros(1))
    traj = run_gd(m, np.ones(1), OptimConfig(eta=0.1, max_iters=17, record_every=5))
    assert list(traj.iters) == [0, 5, 10, 15, 17]


def test_residual_recursion_with_closed_form_average_jacobian():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 12))
    y = rng.standard_normal(5)
    model = GLMModel(X, y, tanh_linear(0.3))
    theta0 = rng.standard_normal(12) * 0.1
    eta = 0.5 / np.linalg.norm(X, 2) ** 2
    traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=25, record_thetas=True))
    for k in range(len(traj.iters) - 1):
        th, th_next = traj.thetas[k], traj.thetas[k + 1]
        r = model.residual(th)
        r_next = model.residual(th_next)
        C = average_jacobian(model, th_next, th) @ model.jacobian(th).T
        predicted = r - eta * C @ r
        assert np.linalg.norm(r_next - predicted) <= 1e-8 * np.linalg.norm(r)


# ---------------------------------------------------------------------------
# One forward pass per step, with the arithmetic of the two-pass loop
# ---------------------------------------------------------------------------

FAMILIES = ["linear", "glm", "lowrank", "net"]
COLUMNS = ("iters", "loss", "misfit", "dist_init", "path_len", "step_norm",
           "gd_potential", "sgd_potential", "norm_misfit", "norm_dist")


def _steady_config(model, theta, steps, **extra):
    eta = 0.25 / np.linalg.norm(model.jacobian(theta), 2) ** 2
    return OptimConfig(eta=eta, max_iters=steps, **extra)


def hand_rolled(model, theta0, cfg, direction, anchors=None, alpha=None):
    """The two-pass loop: measure the misfit, then direction(tau, theta) from scratch.

    Every norm is np.linalg.norm's; with anchors the sgd_potential column holds
    12 * misfit + (alpha / K) * sum_l ||theta - p_l||.
    """
    theta = theta0.copy()
    theta0_norm = float(np.linalg.norm(theta0))
    misfit0 = float(np.linalg.norm(model.residual(theta0)))
    path_len = step_norm = 0.0
    rows = []
    for tau in range(cfg.max_iters + 1):
        if tau > 0:
            step = cfg.eta * direction(tau, theta)
            theta = theta - step
            step_norm = float(np.linalg.norm(step))
            path_len += step_norm
        misfit = float(np.linalg.norm(model.residual(theta)))
        dist = float(np.linalg.norm(theta - theta0))
        sgd = np.nan
        if anchors is not None:
            dists = np.linalg.norm(anchors.anchors - theta, axis=1)
            sgd = 12.0 * misfit + (alpha / anchors.K) * float(dists.sum())
        rows.append((tau, 0.5 * misfit**2, misfit, dist, path_len, step_norm,
                     misfit + cfg.potential_zeta * path_len, sgd,
                     misfit / misfit0, dist / theta0_norm))
    return dict(zip(COLUMNS, np.array(rows).T)), theta


def assert_same_run(traj, columns, theta):
    assert len(traj) == len(columns["iters"])
    for name in COLUMNS:
        assert np.array_equal(getattr(traj, name), columns[name], equal_nan=True), name
    assert np.array_equal(traj.theta_final, theta)


def _run_pl_on_model_loss(model, theta, cfg):
    return run_pl_gd(model_loss(model), theta, cfg, mu=1.0)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("runner", [run_gd, run_sgd, _run_pl_on_model_loss],
                         ids=["gd", "sgd", "pl"])
def test_each_step_runs_one_forward_pass(name, runner, monkeypatch):
    model, theta = model_zoo(2)[name]
    steps = 7
    cfg = _steady_config(model, theta, steps, seed=5)
    calls = []
    forward = type(model).predictions

    def counted(self, th):
        calls.append(1)
        return forward(self, th)

    monkeypatch.setattr(type(model), "predictions", counted)
    traj = runner(model, theta, cfg)
    assert traj.termination == "max_iters" and int(traj.iters[-1]) == steps
    assert len(calls) == steps + 1


@pytest.mark.parametrize("name", FAMILIES)
def test_steps_go_through_the_public_gradient_methods(name, monkeypatch):
    # Profilers and tracers time descent steps by these two method names.
    model, theta = model_zoo(3)[name]
    steps = 6
    cfg = _steady_config(model, theta, steps, seed=2)
    seen = []
    for method in ("gradient", "per_sample_gradient"):
        original = getattr(type(model), method)

        def counted(self, *args, _method=method, _original=original):
            seen.append(_method)
            return _original(self, *args)

        monkeypatch.setattr(type(model), method, counted)
    run_gd(model, theta, cfg)
    assert seen == ["gradient"] * steps
    seen.clear()
    run_sgd(model, theta, cfg)
    assert seen == ["per_sample_gradient"] * steps


@pytest.mark.parametrize("name", ["lowrank", "net"])
@pytest.mark.parametrize("seed", range(3))
def test_gd_matches_two_pass_loop_bitwise(name, seed):
    model, theta = model_zoo(seed)[name]
    cfg = _steady_config(model, theta, 30, potential_zeta=0.5)
    columns, theta_final = hand_rolled(model, theta, cfg,
                                       lambda tau, th: model.gradient(th))
    assert_same_run(run_gd(model, theta, cfg), columns, theta_final)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_sgd_matches_two_pass_loop_bitwise(name, seed):
    model, theta = model_zoo(seed)[name]
    cfg = _steady_config(model, theta, 40, seed=seed, potential_zeta=0.5)
    indices = sgd_index_stream(seed, model.n, cfg.max_iters)
    packing = build_packing(theta, radius_Rp=2.0, epsilon=0.5, K=6, seed=seed)
    for anchors in (None, packing):
        columns, theta_final = hand_rolled(
            model, theta, cfg,
            lambda tau, th: model.per_sample_gradient(th, int(indices[tau - 1])),
            anchors=anchors, alpha=0.3)
        traj = run_sgd(model, theta, cfg, anchors=anchors, alpha=0.3)
        assert np.isfinite(traj.sgd_potential).all() == (anchors is not None)
        assert_same_run(traj, columns, theta_final)


@pytest.mark.parametrize("name", ["linear", "glm"])
def test_gd_closed_form_pullback_tracks_two_pass_loop(name):
    model, theta = model_zoo(4)[name]
    cfg = _steady_config(model, theta, 30)
    columns, theta_final = hand_rolled(model, theta, cfg,
                                       lambda tau, th: model.jacobian(th).T @ model.residual(th))
    traj = run_gd(model, theta, cfg)
    assert_allclose(traj.misfit, columns["misfit"], rtol=1e-12)
    assert_allclose(traj.theta_final, theta_final, rtol=1e-12, atol=1e-12)


def test_lowrank_gd_never_builds_symmetrized_features():
    model, theta = model_zoo(1)["lowrank"]
    run_gd(model, theta, OptimConfig(eta=1e-3, max_iters=20))
    assert "Xs_sym" not in vars(model)
    Theta = model.factor(theta)
    expected = ((model.Xs + model.Xs.transpose(0, 2, 1)) @ Theta).transpose(0, 2, 1)
    assert np.array_equal(model.jacobian(theta), expected.reshape(model.n, model.p))
    assert "Xs_sym" in vars(model)


# ---------------------------------------------------------------------------
# run_sgd
# ---------------------------------------------------------------------------

def test_sgd_single_sample_reduces_to_gd():
    m = LinearModel(np.array([[2.0]]), np.array([1.0]))
    cfg_s = OptimConfig(eta=0.05, max_iters=40, seed=9)
    cfg_g = OptimConfig(eta=0.05, max_iters=40)
    ts = run_sgd(m, np.zeros(1), cfg_s)
    tg = run_gd(m, np.zeros(1), cfg_g)
    assert np.array_equal(ts.misfit, tg.misfit)


def test_sgd_requires_seed():
    m = LinearModel(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        run_sgd(m, np.ones(2), OptimConfig(eta=0.1, max_iters=3))


def test_sgd_expected_square_one_step():
    m = LinearModel(np.eye(2), np.zeros(2))
    theta = np.array([1.0, 1.0])
    expected = enumerate_sgd_expectation(m, theta, 0.5, lambda th: float(th @ th))
    assert expected == pytest.approx(1.25)
    envelope = (1 - 0.5 * 1.0 / (2 * 2)) * 2.0
    assert expected <= envelope


def test_sgd_seeded_bitwise_reproducibility():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    cfg = OptimConfig(eta=1 / 64, max_iters=100, seed=123)
    t1 = run_sgd(m, np.zeros(2), cfg)
    t2 = run_sgd(m, np.zeros(2), cfg)
    assert np.array_equal(t1.misfit, t2.misfit)
    assert np.array_equal(t1.theta_final, t2.theta_final)
    t3 = run_sgd(m, np.zeros(2), OptimConfig(eta=1 / 64, max_iters=100, seed=124))
    assert not np.array_equal(t1.theta_final, t3.theta_final)


def test_sgd_mean_square_misfit_tracks_envelope():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    eta = 1.0 / 64.0  # alpha^2 / (nu beta^2 B^2) at nu = 4
    horizon = 120
    sq = []
    for seed in range(200):
        traj = run_sgd(m, np.zeros(2), OptimConfig(eta=eta, max_iters=horizon, seed=seed))
        sq.append(traj.misfit**2)
    sq = np.array(sq)
    mean = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(sq.shape[0])
    taus = np.arange(horizon + 1, dtype=float)
    envelope = (1 - eta * 1.0 / (2 * 2)) ** taus * 16.0
    assert np.all(mean <= envelope + 3 * se + 1e-12)


# ---------------------------------------------------------------------------
# run_pl_gd and local_pl_check
# ---------------------------------------------------------------------------

def quadratic_loss(X, y):
    m = LinearModel(X, y)
    L = float(np.linalg.norm(X, 2) ** 2)
    return GeneralLoss(value=m.loss, grad=m.gradient, smoothness_L=L)


def test_pl_one_step_convergence_on_unit_quadratic():
    loss = quadratic_loss(np.eye(1), np.zeros(1))
    traj = run_pl_gd(loss, np.ones(1), OptimConfig(eta=1.0, max_iters=5), mu=1.0)
    assert traj.loss[1] == 0.0
    assert traj.gd_potential[0] == pytest.approx(math.sqrt(0.5))


def test_pl_gradient_matches_finite_differences():
    loss = quadratic_loss(np.diag([1.0, 2.0]), np.array([0.5, -1.0]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        theta = rng.standard_normal(2)
        assert_allclose(loss.grad(theta), fd_gradient(loss.value, theta),
                        rtol=1e-5, atol=1e-7)


def test_pl_loss_envelope_and_path_bound():
    X = np.diag([1.0, 2.0])
    y = np.array([1.0, 2.0])
    loss = quadratic_loss(X, y)
    eta = 1.0 / loss.smoothness_L
    mu = 1.0
    traj = run_pl_gd(loss, np.zeros(2), OptimConfig(eta=eta, max_iters=300), mu=mu)
    loss0 = traj.loss[0]
    taus = traj.iters.astype(float)
    assert np.all(traj.loss <= (1 - eta * mu) ** taus * loss0 + 1e-12 * loss0)
    assert traj.path_len[-1] <= math.sqrt(8 * loss0 / mu) + 1e-9
    # potential is nonincreasing
    assert np.all(np.diff(traj.gd_potential) <= 1e-10 * traj.gd_potential[0])


def test_pl_misfit_column_is_root_loss():
    loss = quadratic_loss(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    traj = run_pl_gd(loss, np.zeros(2), OptimConfig(eta=0.25, max_iters=10), mu=1.0)
    assert_allclose(traj.misfit, np.sqrt(traj.loss), rtol=1e-15)


@pytest.mark.parametrize("name", FAMILIES)
def test_pl_on_a_model_loss_matches_the_general_loss_path_bitwise(name):
    model, theta = model_zoo(4)[name]
    cfg = _steady_config(model, theta, 25)
    general = GeneralLoss(value=lambda th: model.loss(th), grad=lambda th: model.gradient(th))
    reference = run_pl_gd(general, theta, cfg, mu=1.0)
    traj = _run_pl_on_model_loss(model, theta, cfg)
    assert_same_run(traj, {name: getattr(reference, name) for name in COLUMNS},
                    reference.theta_final)


def test_pl_rejects_eta_above_inverse_L():
    loss = quadratic_loss(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        run_pl_gd(loss, np.ones(2), OptimConfig(eta=2.0, max_iters=3), mu=1.0)


def test_pl_step_size_check_is_relative_to_inverse_L():
    # At L = 1e20 an absolute slack of 1e-15 admitted eta = 5e-16 = 5e4 / L,
    # and the run diverged.
    loss = quadratic_loss(1e10 * np.eye(2), np.zeros(2))
    assert loss.smoothness_L == 1e20
    for eta in (5e-16, 1e-20 * (1.0 + 1e-12)):
        with pytest.raises(ValueError, match="exceeds 1/L"):
            run_pl_gd(loss, np.ones(2), OptimConfig(eta=eta, max_iters=3), mu=1.0)
    traj = run_pl_gd(loss, np.ones(2), OptimConfig(eta=1.0 / loss.smoothness_L, max_iters=3),
                     mu=1.0)
    assert np.all(np.diff(traj.loss) <= 0.0)


def test_local_pl_check_equality_case():
    loss = GeneralLoss(value=lambda th: 0.5 * float(th @ th), grad=lambda th: th)
    rep = local_pl_check(loss, np.zeros(3), radius=2.0, mu=1.0, samples=32, seed=0)
    assert rep.passed
    assert abs(rep.min_slack) <= 1e-12


def test_local_pl_check_overparameterized_threshold():
    X = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])  # wide: row-space PL with mu = 1
    y = np.array([0.3, -0.4])
    loss = quadratic_loss(X, y)
    ok = local_pl_check(loss, np.zeros(3), radius=1.5, mu=1.0, samples=128, seed=1)
    assert ok.passed
    too_big = local_pl_check(loss, np.zeros(3), radius=1.5, mu=1.01, samples=128, seed=1)
    assert not too_big.passed


def test_local_pl_check_nonconvex_probe_defined_mu():
    loss = GeneralLoss(
        value=lambda th: 0.5 * float((th[0] ** 2 - 1.0) ** 2),
        grad=lambda th: np.array([2.0 * th[0] * (th[0] ** 2 - 1.0)]),
    )
    # slack factors as (theta^2-1)^2 * (4 theta^2 - 2 mu); on [0.8, 1.2] any
    # mu <= 2*0.8^2 = 1.28 passes by construction
    rep = local_pl_check(loss, np.array([1.0]), radius=0.2, mu=1.28, samples=64, seed=2)
    assert rep.passed


def test_local_pl_check_on_a_model_loss_runs_one_forward_pass_a_point(monkeypatch):
    rng = np.random.default_rng(5)
    model = GLMModel(rng.standard_normal((20, 60)), rng.standard_normal(20), tanh_linear(0.3))
    theta = rng.standard_normal(60)
    general = GeneralLoss(value=lambda th: model.loss(th), grad=lambda th: model.gradient(th))
    reference = local_pl_check(general, theta, radius=1.0, mu=0.5, samples=64, seed=3)
    calls = []
    predictions = model.predictions
    monkeypatch.setattr(model, "predictions", lambda th: calls.append(1) or predictions(th))
    rep = local_pl_check(model_loss(model), theta, radius=1.0, mu=0.5, samples=64, seed=3)
    assert len(calls) == 65
    assert rep.min_slack == reference.min_slack
    assert np.array_equal(rep.worst_point, reference.worst_point)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

CSV_FIELDS = ("iters", "loss", "misfit", "dist_init", "path_len", "step_norm",
              "gd_potential", "sgd_potential", "norm_misfit", "norm_dist")


def _roundtrip(traj: Trajectory) -> Trajectory:
    buf = io.StringIO()
    traj.to_csv(buf)
    buf.seek(0)
    back = Trajectory.from_csv(buf)
    for name in CSV_FIELDS:
        assert np.array_equal(getattr(traj, name), getattr(back, name), equal_nan=True), name
    return back


def test_trajectory_csv_roundtrip_exact():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    traj = run_sgd(m, np.zeros(2), OptimConfig(eta=1 / 64, max_iters=50, seed=7))
    back = _roundtrip(traj)
    assert np.all(np.isnan(back.sgd_potential))
    assert np.array_equal(traj.theta_final, back.theta_final)
    assert back.termination == traj.termination
    assert back.eta == traj.eta
    assert back.misfit0 == traj.misfit0
    assert back.theta0_norm == traj.theta0_norm
    assert back.record_every == traj.record_every
    assert back.norm_dist_is_raw == traj.norm_dist_is_raw


def _row_by_row_csv(traj: Trajectory) -> str:
    """Reference writer: one f"{float(x):.17g}" call per cell, NaN blank only
    in sgd_potential."""
    def fmt(x):
        return f"{float(x):.17g}"

    lines = [",".join(("iter",) + CSV_FIELDS[1:])]
    if traj.norm_dist_is_raw:
        lines.append("# norm_dist holds raw dist_init (theta0 has zero norm)")
    for idx in range(len(traj.iters)):
        cells = [str(int(traj.iters[idx]))]
        for name in CSV_FIELDS[1:]:
            x = getattr(traj, name)[idx]
            cells.append("" if name == "sgd_potential" and math.isnan(x) else fmt(x))
        lines.append(",".join(cells))
    lines += [f"# termination={traj.termination}", f"# eta={fmt(traj.eta)}",
              f"# misfit0={fmt(traj.misfit0)}", f"# theta0_norm={fmt(traj.theta0_norm)}",
              f"# record_every={traj.record_every}"]
    if traj.abort_iter is not None:
        lines.append(f"# abort_iter={traj.abort_iter}")
    lines.append("# theta_final=" + " ".join(fmt(v) for v in traj.theta_final))
    return "\n".join(lines) + "\n"


def _divergent_glm_run():
    model, theta = model_zoo(0)["glm"]
    traj = run_gd(model, theta, OptimConfig(eta=50.0, max_iters=2000))
    assert traj.abort_iter is not None
    assert np.isinf(traj.misfit[-1]) and np.isnan(traj.gd_potential[-1])
    return traj


def _anchored_sgd_run():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    anchors = AnchorSet(anchors=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
                        epsilon=1.0, radius_Rp=5.0, center=np.zeros(2), K=3)
    traj = run_sgd(m, np.zeros(2), OptimConfig(eta=1 / 64, max_iters=50, seed=7),
                   anchors=anchors, alpha=0.5)
    assert np.all(np.isfinite(traj.sgd_potential)) and traj.norm_dist_is_raw
    return traj


def _stationary_run():
    # one unit step lands on the least-squares solution, where the gradient is
    # exactly zero; the stride of 3 leaves that iterate for the exit to record
    m = LinearModel(np.diag([1.0, 0.0]), np.ones(2))
    traj = run_gd(m, np.full(2, 0.5), OptimConfig(eta=1.0, max_iters=10, record_every=3))
    assert traj.termination == "stationary" and list(traj.iters) == [0, 1]
    return traj


def _strided_run():
    # long enough to span more than one formatting block of the writer
    m = LinearModel(np.array([[1.0], [0.0]]), np.ones(2))
    traj = run_gd(m, np.array([2.0]), OptimConfig(eta=1e-3, max_iters=7203, record_every=7))
    assert len(traj) == 1030 and list(traj.iters[-3:]) == [7189, 7196, 7203]
    return traj


@pytest.mark.parametrize("run", [_divergent_glm_run, _anchored_sgd_run, _stationary_run,
                                 _strided_run], ids=lambda run: run.__name__.strip("_"))
def test_trajectory_csv_matches_row_formatter(run):
    traj = run()
    buf = io.StringIO()
    traj.to_csv(buf)
    # line by line, so a mismatch reports its first differing line
    written, expected = buf.getvalue().split("\n"), _row_by_row_csv(traj).split("\n")
    assert len(written) == len(expected)
    for got, want in zip(written, expected):
        assert got == want
    _roundtrip(traj)


def test_trajectory_csv_raw_norm_dist_flag():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    traj = run_gd(model, theta0, OptimConfig(eta=0.125, max_iters=20))
    assert traj.norm_dist_is_raw  # theta0 = 0
    assert np.array_equal(traj.norm_dist, traj.dist_init)
    back = _roundtrip(traj)
    assert back.norm_dist_is_raw


def test_trajectory_csv_header_is_pinned():
    buf = io.StringIO()
    m = LinearModel(np.eye(1), np.zeros(1))
    run_gd(m, np.ones(1), OptimConfig(eta=0.5, max_iters=2)).to_csv(buf)
    header = buf.getvalue().splitlines()[0]
    assert header == ("iter,loss,misfit,dist_init,path_len,step_norm,"
                      "gd_potential,sgd_potential,norm_misfit,norm_dist")
