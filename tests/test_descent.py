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
    run_gd,
    run_pl_gd,
    run_sgd,
)
from overparam.models import GLMModel, LinearModel, tanh_linear
from overparam.oracle import enumerate_sgd_expectation, fd_gradient

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
        C = model.average_jacobian(th_next, th) @ model.jacobian(th).T
        predicted = r - eta * C @ r
        assert np.linalg.norm(r_next - predicted) <= 1e-8 * np.linalg.norm(r)


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


def test_pl_rejects_eta_above_inverse_L():
    loss = quadratic_loss(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        run_pl_gd(loss, np.ones(2), OptimConfig(eta=2.0, max_iters=3), mu=1.0)


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


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _roundtrip(traj: Trajectory) -> Trajectory:
    buf = io.StringIO()
    traj.to_csv(buf)
    buf.seek(0)
    return Trajectory.from_csv(buf)


def test_trajectory_csv_roundtrip_exact():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    traj = run_sgd(m, np.zeros(2), OptimConfig(eta=1 / 64, max_iters=50, seed=7))
    back = _roundtrip(traj)
    for name in ("iters", "loss", "misfit", "dist_init", "path_len", "step_norm",
                 "gd_potential", "norm_misfit", "norm_dist"):
        assert np.array_equal(getattr(traj, name), getattr(back, name)), name
    assert np.array_equal(traj.sgd_potential, back.sgd_potential, equal_nan=True)
    assert np.array_equal(traj.theta_final, back.theta_final)
    assert back.termination == traj.termination
    assert back.eta == traj.eta
    assert back.misfit0 == traj.misfit0
    assert back.theta0_norm == traj.theta0_norm
    assert back.record_every == traj.record_every
    assert back.norm_dist_is_raw == traj.norm_dist_is_raw


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
