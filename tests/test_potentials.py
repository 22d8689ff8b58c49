import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overparam.bounds import sgd_run_survives
from overparam.descent import OptimConfig, Trajectory, run_sgd
from overparam.geometry import TheoryPlan, probe_spectrum, sgd_plan
from overparam.models import GLMModel, LinearModel, tanh_linear
from overparam.potentials import (
    AnchorSet,
    PackingInfeasibleError,
    build_packing,
    default_anchor_count,
    exact_conditional_drift,
    gd_potential,
    in_working_ball,
    neighborhood_monitor,
    sgd_potential,
)


# ---------------------------------------------------------------------------
# Packings
# ---------------------------------------------------------------------------

def test_packing_single_anchor_is_center():
    center = np.array([2.0, -1.0])
    pack = build_packing(center, radius_Rp=1.0, epsilon=0.5, K=1, seed=0)
    assert pack.K == 1
    assert np.array_equal(pack.anchors[0], center)


def test_packing_four_points_respect_separation():
    pack = build_packing(np.zeros(2), radius_Rp=10.0, epsilon=1.0, K=4, seed=1)
    assert pack.anchors.shape == (4, 2)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(pack.anchors[i] - pack.anchors[j]) >= 1.0
        assert np.linalg.norm(pack.anchors[i]) <= 10.0 + 1e-12


def test_packing_infeasible_when_epsilon_exceeds_diameter():
    with pytest.raises(PackingInfeasibleError) as err:
        build_packing(np.zeros(3), radius_Rp=1.0, epsilon=2.5, K=2, seed=0,
                      max_attempts=5000)
    assert err.value.achieved == 1
    assert err.value.requested == 2


def test_packing_deterministic():
    p1 = build_packing(np.zeros(4), 5.0, 1.0, K=6, seed=9)
    p2 = build_packing(np.zeros(4), 5.0, 1.0, K=6, seed=9)
    assert np.array_equal(p1.anchors, p2.anchors)


def test_anchor_set_revalidates_on_construction():
    bad = np.array([[0.0, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError):
        AnchorSet(anchors=bad, epsilon=1.0, radius_Rp=5.0, center=np.zeros(2), K=2)
    outside = np.array([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(ValueError):
        AnchorSet(anchors=outside, epsilon=1.0, radius_Rp=5.0, center=np.zeros(2), K=2)
    # the first offending pair in row-major order is named
    crowded = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [2.1, 0.0]])
    with pytest.raises(ValueError, match="anchors 1,3 are"):
        AnchorSet(anchors=crowded, epsilon=1.0, radius_Rp=5.0, center=np.zeros(2), K=4)


def test_default_anchor_count():
    assert default_anchor_count(2, beta=2.0, alpha=1.0) == 3  # ceil(2 sqrt 2)
    assert default_anchor_count(4, beta=1.0, alpha=1.0) == 2


def test_packing_file_roundtrip(tmp_path):
    from overparam.potentials import load_packing, save_packing

    pack = build_packing(np.array([1.0, -2.0, 0.5]), 6.0, 1.5, K=4, seed=3)
    path = tmp_path / "anchors.txt"
    save_packing(pack, path)
    header = path.read_text().splitlines()[0].split()
    assert header == ["4", "1.5", "6", "3"]
    back = load_packing(path)
    assert np.array_equal(back.anchors, pack.anchors)
    assert back.epsilon == pack.epsilon
    assert back.radius_Rp == pack.radius_Rp
    assert np.array_equal(back.center, pack.center)


# ---------------------------------------------------------------------------
# Potential evaluation
# ---------------------------------------------------------------------------

def test_gd_potential_values():
    assert gd_potential(4.0, 0.0, 0.5) == 4.0
    assert gd_potential(0.0, 16.0, 0.25) == 4.0
    with pytest.raises(ValueError):
        gd_potential(-1.0, 0.0, 0.5)


def test_gd_potential_quarter_alpha_matches_tradeoff_combination():
    # zeta = alpha/4 turns (misfit, dist) into the certified tradeoff quantity
    alpha, misfit, dist = 2.0, 1.5, 3.0
    assert gd_potential(misfit, dist, alpha / 4.0) == pytest.approx(misfit + 0.5 * 3.0)


def test_sgd_potential_single_anchor():
    m = LinearModel(np.eye(1), np.array([1.0]))  # misfit 1 at theta = 0
    pack = build_packing(np.zeros(1), radius_Rp=1.0, epsilon=0.5, K=1, seed=0)
    val = sgd_potential(m, np.zeros(1), pack, alpha=3.7)
    assert val.sgd_value == pytest.approx(12.0)
    assert val.components == (12.0, 0.0)


def test_sgd_potential_two_anchor_hand_sum():
    m = LinearModel(np.eye(2), np.array([1.0, 0.0]))  # misfit 1 at theta = 0
    anchors = AnchorSet(
        anchors=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        epsilon=2.0, radius_Rp=1.0, center=np.zeros(2), K=2,
    )
    val = sgd_potential(m, np.zeros(2), anchors, alpha=2.0)
    assert val.sgd_value == pytest.approx(12.0 * 1.0 + (2.0 / 2.0) * 2.0)


def test_sgd_potential_init_bound_equal_condition_numbers():
    m = LinearModel(np.eye(2), np.array([3.0, 4.0]))  # misfit 5 at 0
    pack = build_packing(np.zeros(2), radius_Rp=1.25 * 5.0, epsilon=5.0, K=2, seed=3)
    val = sgd_potential(m, np.zeros(2), pack, alpha=1.0, beta=1.0)
    assert val.init_bound == pytest.approx(14.0 * 5.0)
    assert val.init_bound_ok


def test_sgd_potential_lipschitz_in_misfit_and_theta():
    rng = np.random.default_rng(0)
    m = LinearModel(rng.standard_normal((3, 5)), rng.standard_normal(3))
    pack = build_packing(np.zeros(5), 4.0, 1.0, K=5, seed=1)
    alpha = 1.7
    theta = rng.standard_normal(5)
    base = sgd_potential(m, theta, pack, alpha)
    for _ in range(20):
        delta = rng.standard_normal(5) * 0.1
        moved = sgd_potential(m, theta + delta, pack, alpha)
        dist_term_change = abs(moved.components[1] - base.components[1])
        assert dist_term_change <= alpha * np.linalg.norm(delta) + 1e-12
        misfit_change = abs(moved.components[0] - base.components[0]) / 12.0
        assert abs(moved.sgd_value - base.sgd_value) <= (
            12.0 * misfit_change / 12.0 * 12.0 + alpha * np.linalg.norm(delta) + 1e-12
        )


# ---------------------------------------------------------------------------
# Exact conditional drift
# ---------------------------------------------------------------------------

def test_drift_zero_at_stationary_point():
    m = LinearModel(np.zeros((2, 2)), np.array([1.0, -1.0]))  # all gradients vanish
    pack = build_packing(np.zeros(2), 2.0, 1.0, K=2, seed=0)
    drift = exact_conditional_drift(m, np.zeros(2), eta=0.3, anchors=pack, alpha=1.0)
    assert drift.drift_misfit == 0.0
    assert drift.drift_dist == 0.0
    assert drift.drift_potential == 0.0


def test_drift_misfit_nonpositive_along_planned_run():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    theta0 = np.zeros(2)
    misfit0 = m.misfit(theta0)
    alpha, beta, B, nu = 1.0, 2.0, 2.0, 8.0
    eta = alpha**2 / (nu * beta**2 * B**2)
    pack = build_packing(theta0, 1.25 * 2**0.5 * misfit0, misfit0, K=3, seed=5)
    traj = run_sgd(m, theta0, OptimConfig(eta=eta, max_iters=150, seed=2,
                                          record_thetas=True))
    for idx in range(len(traj.iters)):
        if not in_working_ball(traj.dist_init[idx], traj.misfit[idx], nu / 2,
                               misfit0, alpha):
            continue
        drift = exact_conditional_drift(m, traj.thetas[idx], eta, pack, alpha)
        assert drift.drift_misfit <= 1e-15


def test_recorded_sgd_potential_matches_exact_evaluation():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    theta0 = np.zeros(2)
    misfit0 = m.misfit(theta0)
    alpha = 1.0
    pack = build_packing(theta0, 1.25 * 2**0.5 * misfit0, misfit0, K=3, seed=5)
    traj = run_sgd(m, theta0, OptimConfig(eta=1 / 128, max_iters=50, seed=6,
                                          record_thetas=True),
                   anchors=pack, alpha=alpha)
    for idx in range(len(traj.iters)):
        val = sgd_potential(m, traj.thetas[idx], pack, alpha)
        assert traj.sgd_potential[idx] == pytest.approx(val.sgd_value, rel=1e-12)


def test_drift_negative_on_identity_instance():
    m = LinearModel(np.eye(2), np.zeros(2))
    theta0 = np.array([1.0, 1.0])
    misfit0 = m.misfit(theta0)
    eta = 1.0 / 4.0  # alpha^2/(nu beta^2 B^2) with alpha=beta=B=1, nu=4
    K = default_anchor_count(2, 1.0, 1.0)
    pack = build_packing(theta0, 1.25 * math.sqrt(2) ** (1 / 2) * misfit0,
                         epsilon=misfit0, K=K, seed=2)
    drift = exact_conditional_drift(m, theta0, eta, pack, alpha=1.0)
    assert drift.drift_potential <= 0.0
    # expected-misfit decrease bound
    r = m.residual(theta0)
    jtr = m.jacobian(theta0).T @ r
    bound = -eta / (4 * m.n) * float(jtr @ jtr) / np.linalg.norm(r)
    assert drift.drift_misfit <= bound + 1e-12


# ---------------------------------------------------------------------------
# Neighborhood monitoring
# ---------------------------------------------------------------------------

def _probed_plan(model, theta0, nu=8.0):
    misfit0 = model.misfit(theta0)
    sv = np.linalg.svd(model.jacobian(theta0), compute_uv=False)
    radius = nu * misfit0 / sv[-1]
    bounds = probe_spectrum(model, theta0, radius, samples=24, seed=0)
    return bounds, sgd_plan(bounds, misfit0, nu=nu)


def test_monitor_never_exits_on_planned_run():
    m = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    theta0 = np.zeros(2)
    bounds, plan = _probed_plan(m, theta0)
    traj = run_sgd(m, theta0, OptimConfig(eta=plan.eta, max_iters=300, seed=0))
    report = neighborhood_monitor(traj, plan, theta0, bounds.alpha)
    assert report.first_exit_half is None
    assert report.first_exit_full is None
    assert "never" in report.to_text()


def test_monitor_reports_exit_for_oversized_step():
    rng = np.random.default_rng(5)
    m = GLMModel(rng.standard_normal((4, 8)), rng.standard_normal(4), tanh_linear(0.3))
    theta0 = rng.standard_normal(8) * 0.1
    bounds, plan = _probed_plan(m, theta0)
    traj = run_sgd(m, theta0, OptimConfig(eta=5.0, max_iters=400, seed=1))
    report = neighborhood_monitor(traj, plan, theta0, bounds.alpha)
    assert report.first_exit_half is not None


def test_monitor_requires_stride_one():
    m = LinearModel(np.eye(2), np.zeros(2))
    bounds, plan = _probed_plan(m, np.ones(2), nu=4.0)
    traj = run_sgd(m, np.ones(2), OptimConfig(eta=plan.eta, max_iters=20, seed=0,
                                              record_every=5))
    with pytest.raises(ValueError):
        neighborhood_monitor(traj, plan, np.ones(2), bounds.alpha)


def test_exit_fraction_bounded_on_glm_runs():
    # 500 planned-step runs on a small nonlinear instance: the fraction that
    # ever leaves the half working ball must stay under the planned failure
    # probability plus three Monte-Carlo standard errors
    rng = np.random.default_rng(21)
    m = GLMModel(rng.standard_normal((4, 12)), rng.standard_normal(4), tanh_linear(0.3))
    theta0 = rng.standard_normal(12) * 0.1
    bounds, plan = _probed_plan(m, theta0, nu=8.0)
    runs = 500
    exits = 0
    for seed in range(runs):
        traj = run_sgd(m, theta0, OptimConfig(eta=plan.eta, max_iters=120, seed=seed))
        if not sgd_run_survives(traj, plan.nu, bounds.alpha):
            exits += 1
    freq = exits / runs
    se = np.sqrt(freq * (1 - freq) / runs)
    assert freq <= plan.fail_prob + 3 * se


def test_start_state_always_satisfies_misfit_condition():
    # nu >= 3 makes the misfit membership factor at least 2 at the start
    for nu in (3.0, 4.0, 8.0):
        assert in_working_ball(dist=0.0, misfit=1.0, nu=nu / 2, misfit0=1.0, alpha=1.0)


def _scan_exits(dist, misfit, nu, misfit0, alpha):
    """Row-by-row reference: the first row outside B(nu/2) and B(nu)."""
    exits = []
    for radius in (nu / 2.0, nu):
        first = None
        for idx in range(len(dist)):
            d, m = float(dist[idx]), float(misfit[idx])
            if not (d <= radius * misfit0 / alpha and m <= (2.0 * radius / 3.0) * misfit0):
                first = idx
                break
        exits.append(first)
    return exits


# divergent runs record inf and nan, which must count as outside the ball
_COLUMN_VALUE = st.floats(0.0, 20.0) | st.sampled_from([math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_COLUMN_VALUE, _COLUMN_VALUE), min_size=1, max_size=30),
    nu=st.floats(3.0, 12.0),
    misfit0=st.floats(0.1, 5.0),
    alpha=st.floats(0.1, 5.0),
)
def test_vectorized_ball_verdicts_match_row_scan(rows, nu, misfit0, alpha):
    dist = np.array([r[0] for r in rows])
    misfit = np.array([r[1] for r in rows])
    n_rows = len(rows)
    zeros = np.zeros(n_rows)
    traj = Trajectory(
        iters=np.arange(n_rows) * 3, loss=0.5 * misfit**2, misfit=misfit, dist_init=dist,
        path_len=zeros, step_norm=zeros, gd_potential=zeros, sgd_potential=zeros,
        norm_misfit=misfit, norm_dist=dist, theta_final=np.zeros(1), termination="max_iters",
        eta=0.1, misfit0=misfit0, theta0_norm=1.0, record_every=1,
    )
    half, full = _scan_exits(dist, misfit, nu, misfit0, alpha)
    plan = TheoryPlan(radius_R=1.0, eta=0.1, rate=0.5, regime="bounded", lam=0.5, nu=nu)
    report = neighborhood_monitor(traj, plan, np.zeros(1), alpha)
    assert report.first_exit_half == (None if half is None else 3 * half)
    assert report.first_exit_full == (None if full is None else 3 * full)
    assert sgd_run_survives(traj, nu, alpha) == (half is None)
