import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracemalloc

from overparam import geometry, potentials
from overparam.bounds import sgd_run_survives
from overparam.descent import OptimConfig, Trajectory, run_sgd
from overparam.geometry import TheoryPlan, probe_spectrum, sgd_plan
from overparam.models import GLMModel, LinearModel, tanh_linear
from overparam.oracle import ENUMERATION_CAP, CapacityError, enumerate_sgd_expectation
from overparam.potentials import (
    MISFIT_WEIGHT,
    AnchorSet,
    DriftStream,
    PackingInfeasibleError,
    anchor_distance,
    build_packing,
    conditional_drifts,
    default_anchor_count,
    exact_conditional_drift,
    gd_potential,
    in_working_ball,
    neighborhood_monitor,
    sgd_potential,
)

from conftest import model_zoo


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


def _enumerated_drift(model, theta, eta, pack, alpha):
    """Brute-force drifts, one successor at a time through the oracle."""
    exp_misfit, exp_dist = enumerate_sgd_expectation(
        model, theta, eta,
        lambda succ: np.array([model.misfit(succ), anchor_distance(succ, pack)]),
    )
    d_misfit = exp_misfit - model.misfit(theta)
    d_dist = exp_dist - anchor_distance(theta, pack)
    return np.array([d_misfit, d_dist, MISFIT_WEIGHT * d_misfit + alpha * d_dist])


def _drift_state(model, theta, pack, state):
    """A state and step size: random, the center anchor, or one short step from an anchor."""
    if state == "random":
        return theta + 0.3 * np.random.default_rng(1).standard_normal(model.p), 0.05
    if state == "center":
        return pack.center, 0.05
    # theta sits one short per-sample step from anchor 1, so the step from
    # theta lands close to that anchor: the expansion's worst case
    g = model.per_sample_gradient(pack.anchors[1], 0)
    eta = 1e-3 / np.linalg.norm(g)
    return pack.anchors[1] + eta * g, eta


@pytest.mark.parametrize("state", ["random", "center", "short_step"])
@pytest.mark.parametrize("seed", range(3))
def test_batched_drift_matches_enumeration(family, seed, state):
    model, theta = model_zoo(seed)[family]
    pack = build_packing(theta, 1.0, 0.3, K=4, seed=seed)
    theta, eta = _drift_state(model, theta, pack, state)
    drift = exact_conditional_drift(model, theta, eta, pack, alpha=0.7)
    got = np.array([drift.drift_misfit, drift.drift_dist, drift.drift_potential])
    want = _enumerated_drift(model, theta, eta, pack, alpha=0.7)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_drift_enumeration_cap_refused_before_any_jacobian(monkeypatch):
    n = ENUMERATION_CAP + 1
    m = LinearModel(np.zeros((n, 1)), np.zeros(n))
    calls = []
    monkeypatch.setattr(LinearModel, "factors", lambda self, theta: calls.append(theta))
    pack = build_packing(np.zeros(1), 1.0, 0.5, K=1, seed=0)
    with pytest.raises(CapacityError, match="enumeration cap"):
        exact_conditional_drift(m, np.zeros(1), eta=0.1, anchors=pack, alpha=1.0)
    assert calls == []


def test_drift_one_row_blocks_match_single_block(family, monkeypatch):
    # Other families walk one state's successors in blocks of rows; a GLM walks
    # blocks of states, here three states one at a time.
    model, theta = model_zoo(4)[family]
    pack = build_packing(theta, 1.0, 0.3, K=4, seed=4)
    states = theta + 0.3 * np.random.default_rng(4).standard_normal((3, model.p))
    glm = isinstance(model, GLMModel)
    if not glm:
        states = states[:1]
    whole = conditional_drifts(model, states, 0.05, pack, alpha=0.7)
    block_rows = []
    if glm:
        blocks = potentials._glm_drifts
        monkeypatch.setattr(potentials, "_glm_drifts", lambda model, thetas, *args:
                            block_rows.append(len(thetas)) or blocks(model, thetas, *args))
        monkeypatch.setattr(potentials, "_DRIFT_ENTRY_CAP", 1)
    else:  # one residual at the state, then one a successor
        residual = type(model).residual
        monkeypatch.setattr(type(model), "residual",
                            lambda self, theta: block_rows.append(1) or residual(self, theta))
        monkeypatch.setattr(geometry, "DENSE_SVD_ENTRY_CAP", 1)
    blocked = conditional_drifts(model, states, 0.05, pack, alpha=0.7)
    assert block_rows == [1] * (3 if glm else 1 + model.n)
    if glm:  # a block's products may round otherwise than the whole stack's
        assert np.all(np.abs(blocked - whole) <= 1e-12 * (1.0 + np.abs(whole)))
    else:
        assert blocked == pytest.approx(whole, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["linear", "glm"]), seed=st.integers(0, 10_000),
       block=st.integers(1, 8))
def test_blocked_drifts_match_enumeration_at_every_state_of_a_run(name, seed, block):
    model, theta = model_zoo(seed)[name]
    pack = build_packing(theta, 1.0, 0.3, K=4, seed=seed)
    eta = 0.25 / np.linalg.norm(model.jacobian(theta), 2) ** 2
    traj = run_sgd(model, theta, OptimConfig(eta=eta, max_iters=20, seed=seed,
                                             record_thetas=True))
    # blocks of `block` states, the last one ragged unless block divides 21
    cap = block * (model.n * max(model.n, pack.K) + pack.K * model.p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potentials, "_DRIFT_ENTRY_CAP", cap)
        drifts = conditional_drifts(model, traj.thetas, eta, pack, alpha=0.7)
        picked = conditional_drifts(model, traj.thetas, eta, pack, alpha=0.7,
                                    states=[19, 2, 7])
    assert drifts.shape == (21, 3)
    # other blocks, so other product bits: within the enumeration's tolerance
    assert np.all(np.abs(picked - drifts[[19, 2, 7]]) <= 1e-12 * (1.0 + np.abs(picked)))
    for state, got in zip(traj.thetas, drifts):
        want = _enumerated_drift(model, state, eta, pack, alpha=0.7)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        single = exact_conditional_drift(model, state, eta, pack, alpha=0.7)
        assert [single.drift_misfit, single.drift_dist, single.drift_potential] == \
            pytest.approx(got, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["linear", "glm", "net"]), seed=st.integers(0, 10_000),
       steps=st.integers(1, 200), chunk=st.integers(1, 9), period=st.integers(1, 4))
def test_streamed_drifts_match_conditional_drifts_bitwise(name, seed, steps, chunk, period):
    # The run's blocks of recorded rows straddle the chunks of `chunk` GLM states that
    # conditional_drifts evaluates at once; every period-th row counts as inside.
    model, theta = model_zoo(seed)[name]
    pack = build_packing(theta, 1.0, 0.3, K=4, seed=seed)
    eta = 0.25 / np.linalg.norm(model.jacobian(theta), 2) ** 2
    cfg = OptimConfig(eta=eta, max_iters=steps, seed=seed)

    def inside(iters):
        return iters.astype(int) % period == 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potentials, "_DRIFT_ENTRY_CAP",
                      chunk * (model.n * max(model.n, pack.K) + pack.K * model.p))
        stream = DriftStream(model, eta, pack, alpha=0.7)
        streamed = run_sgd(model, theta, cfg, observers=[
            lambda iters, thetas, *_: stream.add(thetas[inside(iters)])])
        recorded = run_sgd(model, theta, replace(cfg, record_thetas=True))
        want = conditional_drifts(model, recorded.thetas, eta, pack, alpha=0.7,
                                  states=np.flatnonzero(inside(recorded.iters)))
        got = stream.drifts()
    assert streamed.thetas is None and len(streamed) == len(recorded)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_glm_drifts_read_the_states_a_block_at_a_time():
    # 100,000 states as a broadcast view of one theta: a copy of them would take
    # 48 MB, while the drifts' blocks hold a few arrays of _DRIFT_ENTRY_CAP entries.
    rng = np.random.default_rng(2)
    model = GLMModel(rng.standard_normal((3, 60)), rng.standard_normal(3), tanh_linear(0.3))
    theta = 0.1 * rng.standard_normal(60)
    pack = build_packing(theta, 1.0, 0.3, K=4, seed=2)
    thetas = np.broadcast_to(theta, (100_000, 60))
    tracemalloc.start()
    try:
        drifts = conditional_drifts(model, thetas, 0.01, pack, alpha=0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drifts == pytest.approx(np.broadcast_to(drifts[0], drifts.shape), rel=1e-12)
    assert peak < 8 << 20


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
    report = neighborhood_monitor(traj, plan, bounds.alpha)
    assert report.first_exit_half is None
    assert report.first_exit_full is None
    assert "never" in report.to_text()


def test_monitor_reports_exit_for_oversized_step():
    rng = np.random.default_rng(5)
    m = GLMModel(rng.standard_normal((4, 8)), rng.standard_normal(4), tanh_linear(0.3))
    theta0 = rng.standard_normal(8) * 0.1
    bounds, plan = _probed_plan(m, theta0)
    traj = run_sgd(m, theta0, OptimConfig(eta=5.0, max_iters=400, seed=1))
    report = neighborhood_monitor(traj, plan, bounds.alpha)
    assert report.first_exit_half is not None


def test_monitor_requires_stride_one():
    m = LinearModel(np.eye(2), np.zeros(2))
    bounds, plan = _probed_plan(m, np.ones(2), nu=4.0)
    traj = run_sgd(m, np.ones(2), OptimConfig(eta=plan.eta, max_iters=20, seed=0,
                                              record_every=5))
    with pytest.raises(ValueError):
        neighborhood_monitor(traj, plan, bounds.alpha)


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
    report = neighborhood_monitor(traj, plan, alpha)
    assert report.first_exit_half == (None if half is None else 3 * half)
    assert report.first_exit_full == (None if full is None else 3 * full)
    assert sgd_run_survives(traj, nu, alpha) == (half is None)
