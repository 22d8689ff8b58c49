import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overparam import geometry
from overparam.geometry import (
    CertificationError,
    SpectrumBounds,
    gd_plan,
    probe_points,
    probe_spectrum,
    sample_ball,
    sgd_plan,
    spectral_norm,
    verify_assumptions,
)
from overparam.models import GLMModel, LinearModel, ShallowNetModel, tanh_linear
from overparam.oracle import CapacityError

from conftest import model_zoo


def make_bounds(alpha, beta, B=None, L=0.0, n=2, p=2):
    return SpectrumBounds(
        alpha=alpha, beta=beta, row_bound_B=B if B is not None else beta,
        lipschitz_L=L, probe_count=1, radius=1.0, center=np.zeros(p),
        n_rows=n, p_cols=p,
    )


def dense_deviations(model, points, pairs):
    """Reference: ||J(a) - J(b)|| by a full dense SVD for every pair."""
    jacobians = [model.jacobian(pt) for pt in points]
    return [float(np.linalg.norm(jacobians[i] - jacobians[j], 2)) for i, j in pairs]


# ---------------------------------------------------------------------------
# spectral_norm
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    short=st.integers(1, 12),
    extra=st.integers(0, 40),
    shape=st.sampled_from(["wide", "tall", "square"]),
    kind=st.sampled_from(["gaussian", "ill_conditioned", "rank1", "zero"]),
    log_scale=st.integers(-30, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_matches_dense_svd(short, extra, shape, kind, log_scale, seed):
    rows, cols = {"wide": (short, short + extra), "tall": (short + extra, short),
                  "square": (short, short)}[shape]
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        A = rng.standard_normal((rows, cols))
    elif kind == "ill_conditioned":
        k = min(rows, cols)
        U, _ = np.linalg.qr(rng.standard_normal((rows, k)))
        V, _ = np.linalg.qr(rng.standard_normal((cols, k)))
        A = (U * np.logspace(0, -15, k)) @ V.T
    elif kind == "rank1":
        A = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    else:
        A = np.zeros((rows, cols))
    A *= 10.0**log_scale
    want = float(np.linalg.norm(A, 2))
    got = spectral_norm(A)
    if kind == "zero":
        assert got == 0.0 and want == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# probe_spectrum
# ---------------------------------------------------------------------------

def test_probe_points_are_the_center_then_seeded_ball_draws():
    center = np.arange(5)
    points = probe_points(center, 2.0, 7, seed=3)
    assert points.shape == (8, 5) and points.dtype == float
    assert np.array_equal(points[0], center)
    assert np.array_equal(points[1:], sample_ball(center.astype(float), 2.0, 7,
                                                  np.random.default_rng(3)))


def test_probe_linear_exact():
    m = LinearModel(np.diag([1.0, 2.0]), np.zeros(2))
    b = probe_spectrum(m, np.zeros(2), radius=5.0, samples=16, seed=0)
    assert abs(b.alpha - 1.0) <= 1e-10
    assert abs(b.beta - 2.0) <= 1e-10
    assert abs(b.row_bound_B - 2.0) <= 1e-10
    assert b.lipschitz_L <= 1e-10


def test_probe_linear_visits_no_pair(monkeypatch):
    # The GLM deviation bound is exactly 0 for the identity activation, so no
    # pair can beat L = 0 and no eigensolve runs.
    model, theta = model_zoo(3)["linear"]
    solves = []
    monkeypatch.setattr(geometry, "spectral_norm", lambda A: solves.append(A))
    b = probe_spectrum(model, theta, 1.0, samples=16, seed=0)
    assert b.lipschitz_L == 0.0
    assert solves == []


def test_probe_deterministic():
    m = GLMModel(np.random.default_rng(0).standard_normal((4, 6)),
                 np.zeros(4), tanh_linear(0.3))
    b1 = probe_spectrum(m, np.zeros(6), 1.0, samples=12, seed=5)
    b2 = probe_spectrum(m, np.zeros(6), 1.0, samples=12, seed=5)
    assert b1.alpha == b2.alpha and b1.beta == b2.beta
    assert b1.lipschitz_L == b2.lipschitz_L


def test_probe_glm_small_ball_brackets_slope():
    m = GLMModel(np.eye(1), np.zeros(1), tanh_linear(0.3))
    b = probe_spectrum(m, np.zeros(1), radius=0.01, samples=64, seed=1)
    assert abs(b.alpha - 1.3) <= 1e-3
    assert abs(b.beta - 1.3) <= 1e-3


def test_probe_includes_trajectory_points():
    m = GLMModel(np.eye(1), np.zeros(1), tanh_linear(0.3))
    far = np.array([[10.0]])  # dphi(10) ~ 1.0, well below the ball values
    b = probe_spectrum(m, np.zeros(1), radius=0.01, samples=4, seed=1,
                       trajectory_points=far)
    assert b.alpha <= 1.001


@pytest.mark.parametrize("max_pairs", [4096, 5], ids=["all_pairs", "chain"])
def test_probe_lipschitz_matches_dense_pair_loop(family, max_pairs):
    model, theta = model_zoo(11)[family]
    samples, radius, seed = 12, 1.5, 4
    b = probe_spectrum(model, theta, radius, samples=samples, seed=seed,
                       max_pairs=max_pairs)
    points = [theta, *sample_ball(theta, radius, samples, np.random.default_rng(seed))]
    m = len(points)
    if max_pairs == 4096:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    else:  # center to every point, then consecutive points
        pairs = [(0, j) for j in range(1, m)] + [(j, j + 1) for j in range(1, m - 1)]
    gaps = [float(np.linalg.norm(points[i] - points[j])) for i, j in pairs]
    jacobians = [model.jacobian(pt) for pt in points]
    unpruned = max(spectral_norm(jacobians[i] - jacobians[j]) / gap
                   for (i, j), gap in zip(pairs, gaps))
    assert b.lipschitz_L == unpruned
    devs = dense_deviations(model, points, pairs)
    dense = max(dev / gap for dev, gap in zip(devs, gaps))
    assert b.lipschitz_L == pytest.approx(dense, rel=1e-12, abs=0.0)


def glm_probe_instance():
    rng = np.random.default_rng(7)
    model = GLMModel(rng.standard_normal((20, 50)), rng.standard_normal(20), tanh_linear(0.3))
    return model, rng.standard_normal(50)


def test_probe_eigensolves_only_pairs_that_can_win(monkeypatch):
    model, theta = glm_probe_instance()
    solves = []

    def counting(A):
        solves.append(A.shape)
        return spectral_norm(A)

    monkeypatch.setattr(geometry, "spectral_norm", counting)
    b = probe_spectrum(model, theta, 1.0, samples=64, seed=0)
    assert b.probe_count == 65
    assert 0 < len(solves) < 65 * 64 // 2


def test_glm_probe_holds_few_jacobians(monkeypatch):
    model, theta = glm_probe_instance()
    jacobian = model.jacobian
    live, calls, most, at_center = set(), [0], [0], [0]

    def tracked(pt):
        J = jacobian(pt)
        calls[0] += 1
        at_center[0] += np.array_equal(pt, theta)
        live.add(calls[0])
        weakref.finalize(J, live.discard, calls[0])
        most[0] = max(most[0], len(live))
        return J

    monkeypatch.setattr(model, "jacobian", tracked)
    probe_spectrum(model, theta, 1.0, samples=64, seed=0)
    assert calls[0] > 65
    assert most[0] <= 3
    assert at_center[0] == 1  # the per-point loop's center Jacobian is reused


def test_probe_capacity_error():
    m = LinearModel(np.zeros((2001, 2001)), np.zeros(2001))
    with pytest.raises(CapacityError):
        probe_spectrum(m, np.zeros(2001), 1.0, samples=1, seed=0)


def test_probe_alpha_beta_are_raw_extrema(family):
    model, theta = model_zoo(13)[family]
    b = probe_spectrum(model, theta, 1.0, samples=6, seed=2)
    points = [theta, *sample_ball(theta, 1.0, 6, np.random.default_rng(2))]
    svs = [np.linalg.svd(model.jacobian(pt), compute_uv=False) for pt in points]
    assert b.alpha == min(float(sv[-1]) for sv in svs)
    assert b.beta == max(float(sv[0]) for sv in svs)


# ---------------------------------------------------------------------------
# Model.deviation_bounds
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["linear", "glm", "lowrank", "net"]),
    zoo_seed=st.integers(0, 50),
    log_radii=st.lists(st.integers(-15, 2), min_size=1, max_size=4),
    log_scale=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_deviation_bounds_cover_every_pair(family, zoo_seed, log_radii, log_scale, seed):
    model, theta = model_zoo(zoo_seed)[family]
    rng = np.random.default_rng(seed)
    theta = theta * 10.0**log_scale
    # coincident, then near-coincident: every coordinate one ulp away either
    # way, and the last bits of a far point changed
    points = [theta, theta.copy(), np.nextafter(theta, np.inf), np.nextafter(theta, -np.inf)]
    for log_radius in log_radii:
        step = rng.standard_normal(model.p)
        points.append(theta + 10.0**log_radius * step / np.linalg.norm(step))
    points.append(points[-1] * (1.0 + 2.0**-52))
    bounds = model.deviation_bounds(points)
    assert bounds.shape == (len(points), len(points))
    jacobians = [model.jacobian(pt) for pt in points]
    for i in range(len(points)):
        for j in range(len(points)):
            dev = spectral_norm(jacobians[i] - jacobians[j])
            if family == "linear":
                assert bounds[i, j] == 0.0
            else:
                assert dev <= bounds[i, j]


# ---------------------------------------------------------------------------
# gd_plan
# ---------------------------------------------------------------------------

def test_gd_plan_reference_values():
    plan = gd_plan(make_bounds(1.0, 2.0), initial_misfit=4.0, regime="bounded", lam=0.5)
    assert plan.eta == pytest.approx(0.125)
    assert plan.radius_R == pytest.approx(16.0)
    assert plan.rate == pytest.approx(0.9375)


def test_gd_plan_perfectly_conditioned():
    plan = gd_plan(make_bounds(3.0, 3.0), initial_misfit=1.0, lam=0.5)
    assert plan.eta == pytest.approx(1.0 / (2 * 9.0))
    assert plan.rate == pytest.approx(0.75)


def test_gd_plan_radius_identity():
    for alpha, beta, misfit in [(1.0, 2.0, 4.0), (0.3, 5.0, 2.7), (2.0, 2.0, 11.0)]:
        plan = gd_plan(make_bounds(alpha, beta), misfit, lam=0.5)
        assert abs(plan.radius_R * alpha - 4.0 * misfit) <= 1e-12 * 4.0 * misfit


def test_gd_plan_smooth_clips_eta():
    # large L forces the smooth branch below lam/beta^2
    bounds = make_bounds(1.0, 2.0, L=100.0)
    misfit = 5.0
    plan = gd_plan(bounds, misfit, regime="smooth", lam=0.5)
    expected = 2.0 * 0.5 * 1.0 / (100.0 * misfit) / 4.0
    assert plan.eta == pytest.approx(expected)
    # small L: falls back to lam / beta^2
    loose = gd_plan(make_bounds(1.0, 2.0, L=1e-6), misfit, regime="smooth", lam=0.5)
    assert loose.eta == pytest.approx(0.125)


def test_gd_plan_honors_smaller_explicit_eta():
    plan = gd_plan(make_bounds(1.0, 2.0), 4.0, lam=0.5, eta=0.01)
    assert plan.eta == 0.01
    capped = gd_plan(make_bounds(1.0, 2.0), 4.0, lam=0.5, eta=10.0)
    assert capped.eta == pytest.approx(0.125)


def test_gd_plan_rejects_zero_alpha():
    with pytest.raises(CertificationError):
        gd_plan(make_bounds(0.0, 2.0), 4.0)


def test_gd_plan_rejects_bad_lambda():
    with pytest.raises(ValueError):
        gd_plan(make_bounds(1.0, 2.0), 4.0, lam=0.0)


# ---------------------------------------------------------------------------
# sgd_plan
# ---------------------------------------------------------------------------

def test_sgd_plan_unit_constants():
    plan = sgd_plan(make_bounds(1.0, 1.0, B=1.0, n=2), 1.0, nu=4.0)
    assert plan.eta == pytest.approx(0.25)
    assert plan.rate == pytest.approx(1 - 1 / 16)
    assert plan.fail_prob == pytest.approx(1.0)


def test_sgd_plan_fail_probability():
    plan = sgd_plan(make_bounds(1.0, 2.0, B=2.0, n=2, p=100), 1.0, nu=8.0)
    assert plan.fail_prob == pytest.approx(0.5 * 2 ** 0.01)
    assert plan.fail_prob == pytest.approx(0.5035, abs=1e-4)


def test_sgd_plan_eta_value():
    plan = sgd_plan(make_bounds(1.0, 2.0, B=2.0), 1.0, nu=4.0)
    assert plan.eta == pytest.approx(1.0 / 64.0)


def test_sgd_plan_rate_monotone_in_n():
    rates = [
        sgd_plan(make_bounds(1.0, 2.0, B=2.0, n=n), 1.0, nu=4.0).rate
        for n in (1, 2, 5, 10, 100)
    ]
    assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:]))
    assert all(r < 1.0 for r in rates)


def test_sgd_plan_requires_nu_at_least_three():
    with pytest.raises(ValueError):
        sgd_plan(make_bounds(1.0, 2.0), 1.0, nu=2.9)


def test_sgd_plan_smooth_regime_shrinks_eta():
    bounded = sgd_plan(make_bounds(1.0, 2.0, B=2.0, L=3.0), 1.0, nu=4.0, regime="bounded")
    smooth = sgd_plan(make_bounds(1.0, 2.0, B=2.0, L=3.0), 1.0, nu=4.0, regime="smooth")
    assert smooth.eta < bounded.eta
    assert smooth.eta == pytest.approx(1.0 / (4 * 16 + 4 * 2 * 2 * 3))


# ---------------------------------------------------------------------------
# verify_assumptions
# ---------------------------------------------------------------------------

def test_verify_capacity_refused_before_any_jacobian(monkeypatch):
    m = LinearModel(np.zeros((2001, 2001)), np.zeros(2001))
    built = []
    monkeypatch.setattr(m, "jacobian", lambda theta: built.append(theta))
    with pytest.raises(CapacityError):
        verify_assumptions(m, make_bounds(1.0, 1.0, n=2001, p=2001), samples=4, seed=0)
    assert built == []


def test_verify_linear_bounded_holds():
    m = LinearModel(np.diag([1.0, 2.0]), np.zeros(2))
    b = probe_spectrum(m, np.zeros(2), 3.0, samples=8, seed=0)
    rep = verify_assumptions(m, b, lam=0.5, samples=8, seed=1)
    assert rep.bounded_ok and rep.smooth_ok
    assert rep.max_deviation == 0.0
    assert "empirical" in rep.note


def test_verify_glm_tiny_ball_reports_small_deviation():
    rng = np.random.default_rng(0)
    m = GLMModel(rng.standard_normal((4, 10)), rng.standard_normal(4), tanh_linear(0.1))
    b = probe_spectrum(m, np.zeros(10), radius=1e-3, samples=16, seed=0)
    rep = verify_assumptions(m, b, lam=0.5, samples=16, seed=2)
    assert rep.bounded_ok
    assert rep.max_deviation < rep.bounded_limit


def test_verify_reports_violation_on_large_ball():
    # a steep nonlinearity over a huge ball breaks the bounded-deviation budget
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 5))
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    m = ShallowNetModel(X, np.zeros(3), v, tanh_linear(0.9))
    b = probe_spectrum(m, np.zeros(20), radius=50.0, samples=24, seed=3)
    rep = verify_assumptions(m, b, lam=0.99, samples=24, seed=4)
    assert not rep.bounded_ok
    assert rep.worst_pair is not None
    a, c = rep.worst_pair
    dev = np.linalg.norm(m.jacobian(a) - m.jacobian(c), 2)
    assert dev == pytest.approx(rep.max_deviation)


def test_verify_deviations_match_dense_pair_loop(family):
    model, theta = model_zoo(12)[family]
    b = probe_spectrum(model, theta, 2.0, samples=8, seed=0)
    samples, seed = 10, 3
    rep = verify_assumptions(model, b, samples=samples, seed=seed)
    points = [theta, *sample_ball(theta, b.radius, samples, np.random.default_rng(seed))]
    m = len(points)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    devs = dense_deviations(model, points, pairs)
    max_dev, worst, max_ratio = 0.0, None, 0.0
    for dev, (i, j) in zip(devs, pairs):
        if dev > max_dev:
            max_dev, worst = dev, (points[i], points[j])
        max_ratio = max(max_ratio, dev / float(np.linalg.norm(points[i] - points[j])))
    assert rep.max_deviation == pytest.approx(max_dev, rel=1e-12, abs=0.0)
    assert rep.lipschitz_estimate == pytest.approx(
        max(b.lipschitz_L, max_ratio), rel=1e-12, abs=0.0)
    if worst is None:
        assert rep.worst_pair is None
    else:
        assert all(np.array_equal(a, c) for a, c in zip(rep.worst_pair, worst))
