import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from overparam import cli, geometry
from overparam.config import parse_config_text
from overparam.geometry import (
    CertificationError,
    SpectrumBounds,
    gd_plan,
    gram_brackets,
    probe_points,
    probe_spectrum,
    sample_ball,
    sgd_plan,
    spectral_norm,
    verify_assumptions,
)
from overparam.models import GLMModel, LinearModel, Model, ShallowNetModel, kron_rows, tanh_linear
from overparam.oracle import CapacityError

from conftest import model_zoo


def make_bounds(alpha, beta, B=None, L=0.0, n=2, p=2):
    return SpectrumBounds(
        alpha=alpha, beta=beta, row_bound_B=B if B is not None else beta,
        lipschitz_L=L, probe_count=1, radius=1.0, center=np.zeros(p),
        n_rows=n, p_cols=p,
    )


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls; returns the count list."""
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(1) or original(*args, **kw))
    return calls


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
    # Every dense Jacobian is built from the factor stack and dropped after its
    # one evaluation: at most a pair's two are alive at once.
    model, theta = glm_probe_instance()
    live, calls, most = set(), [0], [0]

    def tracked(F, X):
        J = kron_rows(F, X)
        calls[0] += 1
        live.add(calls[0])
        weakref.finalize(J, live.discard, calls[0])
        most[0] = max(most[0], len(live))
        return J

    monkeypatch.setattr(geometry, "kron_rows", tracked)
    factor_calls = count_calls(monkeypatch, model, "factors")
    probe_spectrum(model, theta, 1.0, samples=64, seed=0)
    assert calls[0] > 65
    assert most[0] <= 2
    assert len(factor_calls) == 65  # each point's factors once, none rebuilt for a Jacobian


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


def ill_conditioned_net():
    """rank X = d < n and slopes within 1e-4 of each other: kappa(J) of about 3e6."""
    rng = np.random.default_rng(0)
    n, d, k = 12, 4, 4
    X = rng.standard_normal((n, d))
    v = rng.standard_normal(k)
    v /= np.linalg.norm(v)
    model = ShallowNetModel(X, rng.standard_normal(n), v, tanh_linear(1e-4))
    return model, rng.standard_normal(k * d)


def test_tall_models_are_refused_before_any_factor(monkeypatch):
    X = np.random.default_rng(0).standard_normal((30, 20))
    model = GLMModel(X, np.zeros(30), tanh_linear(0.3))
    factor_calls = count_calls(monkeypatch, model, "factors")
    message = r"n = 30 samples exceed p = 20 parameters, .* alpha = 0"
    with pytest.raises(CertificationError, match=message):
        probe_spectrum(model, np.zeros(20), 1.0)
    with pytest.raises(CertificationError, match=message):
        verify_assumptions(model, make_bounds(1.0, 2.0, n=30, p=20))
    assert factor_calls == []


# ---------------------------------------------------------------------------
# Pair deviation bounds from the Gram factors
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["linear", "glm", "lowrank", "net", "ill-conditioned net"]),
    zoo_seed=st.integers(0, 50),
    log_radii=st.lists(st.integers(-15, 2), min_size=1, max_size=4),
    log_scale=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
# Points 1e-15 apart, whose dense deviations exceed the Schur term alone: only
# the additive rounding term covers them.
@example(family="glm", zoo_seed=1, log_radii=[-15], log_scale=0, seed=1)
def test_deviation_bounds_cover_every_pair(family, zoo_seed, log_radii, log_scale, seed):
    if family == "ill-conditioned net":
        model, theta = ill_conditioned_net()
    else:
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
    factors, X, K, same, traces = geometry._factor_stack(model, np.array(points))
    pairs = [(i, j) for i in range(len(points)) for j in range(len(points))]
    bounds = geometry._pair_bounds(factors, K, same, traces, pairs, model.p)
    jacobians = [model.jacobian(pt) for pt in points]
    for (i, j), bound in zip(pairs, bounds):
        if family == "linear":
            assert bound == 0.0
        else:
            assert spectral_norm(jacobians[i] - jacobians[j]) <= bound


# ---------------------------------------------------------------------------
# Gram brackets and the point extrema they prune
# ---------------------------------------------------------------------------

def test_ill_conditioned_net_is_ill_conditioned():
    model, theta = ill_conditioned_net()
    sv = np.linalg.svd(model.jacobian(theta), compute_uv=False)
    assert sv[0] >= 1e6 * sv[-1]


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(["linear", "glm", "lowrank", "net", "ill-conditioned net"]),
    zoo_seed=st.integers(0, 50),
    log_radii=st.lists(st.integers(-15, 2), min_size=1, max_size=3),
    log_scale=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_brackets_hold_the_dense_values(family, zoo_seed, log_radii, log_scale, seed):
    if family == "ill-conditioned net":
        model, theta = ill_conditioned_net()
    else:
        model, theta = model_zoo(zoo_seed)[family]
    rng = np.random.default_rng(seed)
    theta = theta * 10.0**log_scale
    # coincident, one ulp apart either way, then further out
    points = [theta, theta.copy(), np.nextafter(theta, np.inf), np.nextafter(theta, -np.inf)]
    for log_radius in log_radii:
        step = rng.standard_normal(model.p)
        points.append(theta + 10.0**log_radius * step / np.linalg.norm(step))
    factors, X, K, same, traces = geometry._factor_stack(model, np.array(points))
    jacobians = [model.jacobian(pt) for pt in points]
    for F, J, trace in zip(factors, jacobians, traces):
        assert np.array_equal(kron_rows(F, X), J)  # what geometry evaluates
        G = (F @ F.T) * K
        lower, upper, row_upper = gram_brackets(G, trace, model.p)
        sv = np.linalg.svd(J, compute_uv=False)[::-1]
        assert np.all(lower <= sv) and np.all(sv <= upper)
        assert np.all(np.linalg.norm(J, axis=1) <= row_upper)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            D = factors[i] - factors[j]
            G = (D @ D.T) * K
            upper = gram_brackets(G, np.trace(G) + traces[i] + traces[j], model.p)[1][-1]
            assert spectral_norm(jacobians[i] - jacobians[j]) <= upper


def bench_instance(family, data_seed):
    """The instances the benchmark's certify workload probes: glm n=100 p=400, net n=50
    d=20 k=20, with the probe radius and seed that `overparam run` uses."""
    sizes = {"glm": "model.n = 100\nmodel.p = 400\n",
             "net": "model.n = 50\nmodel.d = 20\nmodel.k = 20\n"}[family]
    cfg = parse_config_text(f"model.family = {family}\n{sizes}model.data_seed = {data_seed}\n")
    model, theta0 = cli.build_model(cfg)
    radius = cli.auto_probe_radius(cfg, model, theta0, model.misfit(theta0))
    return model, theta0, radius, data_seed + cli._PROBE_SEED_OFFSET


def dense_point_extrema(model, points):
    """Reference: (alpha, beta, B) from a dense SVD and row norms at every point."""
    sigma_min, sigma_max, row_bound = np.inf, 0.0, 0.0
    for pt in points:
        J = model.jacobian(pt)
        sv = np.linalg.svd(J, compute_uv=False)
        sigma_min = min(sigma_min, float(sv[-1]))
        sigma_max = max(sigma_max, float(sv[0]))
        row_bound = max(row_bound, float(np.max(np.linalg.norm(J, axis=1))))
    return sigma_min, sigma_max, min(row_bound, sigma_max)


@pytest.mark.parametrize("data_seed", [0, 7, 11])
@pytest.mark.parametrize("family", ["glm", "net"])
def test_probe_extrema_match_the_dense_loop_on_bench_shapes(family, data_seed):
    model, theta0, radius, seed = bench_instance(family, data_seed)
    b = probe_spectrum(model, theta0, radius, samples=64, seed=seed)
    points = probe_points(theta0, radius, 64, seed)
    assert (b.alpha, b.beta, b.row_bound_B) == dense_point_extrema(model, points)


def test_bench_glm_runs_few_dense_solves(monkeypatch):
    model, theta0, radius, seed = bench_instance("glm", 0)
    svds = count_calls(monkeypatch, np.linalg, "svd")
    b = probe_spectrum(model, theta0, radius, samples=64, seed=seed)
    assert len(svds) <= 5
    solves = count_calls(monkeypatch, geometry, "spectral_norm")
    builds = count_calls(monkeypatch, geometry, "kron_rows")
    factor_calls = count_calls(monkeypatch, model, "factors")
    verify_assumptions(model, b, samples=32, seed=seed + 1)
    assert 0 < len(solves) <= 5 and len(builds) == 2 * len(solves)
    assert len(factor_calls) == 33  # the Jacobians come from the one stack


def test_bench_net_probe_builds_jacobians_only_for_dense_evaluations(monkeypatch):
    # Every bracket comes from the one stack of slope factors, and every dense
    # Jacobian is built from it: two for each of the 64 visited pairs, one for
    # each of the 2 dense SVDs and one for the row norms of the point that sets B.
    model, theta0, radius, seed = bench_instance("net", 0)
    stacks = []
    factor_stack = geometry._factor_stack
    monkeypatch.setattr(geometry, "_factor_stack",
                        lambda model, points: stacks.append(len(points))
                        or factor_stack(model, points))
    factor_calls = count_calls(monkeypatch, model, "factors")
    builds = count_calls(monkeypatch, geometry, "kron_rows")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    solves = count_calls(monkeypatch, geometry, "spectral_norm")
    probe_spectrum(model, theta0, radius, samples=64, seed=seed)
    assert (len(builds), len(svds), len(solves)) == (131, 2, 64)
    assert (len(factor_calls), stacks) == (65, [65])


def test_linear_probe_and_verify_evaluate_one_shared_jacobian(monkeypatch):
    # Every point of the linear family has the Jacobian X: its brackets all
    # tie, so the searches must share one dense evaluation rather than run one
    # per point, and every pair's difference is exactly zero.
    cfg = parse_config_text("model.family = linear\nmodel.n = 100\nmodel.p = 400\n")
    model, theta0 = cli.build_model(cfg)
    points = probe_points(theta0, 1.0, 64, 3)
    reference = dense_point_extrema(model, points)
    svds = count_calls(monkeypatch, np.linalg, "svd")
    solves = count_calls(monkeypatch, geometry, "spectral_norm")
    builds = count_calls(monkeypatch, geometry, "kron_rows")  # the SVD's and the row norms'
    factor_calls = count_calls(monkeypatch, model, "factors")
    b = probe_spectrum(model, theta0, 1.0, samples=64, seed=3)
    assert (b.alpha, b.beta, b.row_bound_B, b.lipschitz_L) == (*reference, 0.0)
    assert (len(svds), len(solves), len(builds), len(factor_calls)) == (1, 0, 2, 65)
    report = verify_assumptions(model, b, samples=32, seed=4)
    assert (report.max_deviation, report.lipschitz_estimate, report.worst_pair) == (0.0, 0.0, None)
    assert (len(svds), len(solves), len(builds), len(factor_calls)) == (1, 0, 2, 98)


def test_lowrank_probe_builds_no_jacobian_through_the_model(monkeypatch):
    # The low-rank factor is the dense Jacobian itself, so the probe evaluates
    # every point and pair from its one stack and never calls model.jacobian.
    model, theta0 = cli.lowrank_instance(20, 3, d=30, r=3)
    points = probe_points(theta0, 1.0, 32, 5)
    m = len(points)
    jacobians = [model.jacobian(pt) for pt in points]
    dense_L = max(spectral_norm(jacobians[i] - jacobians[j])
                  / float(np.linalg.norm(points[i] - points[j]))
                  for i in range(m) for j in range(i + 1, m))
    reference = (*dense_point_extrema(model, points), dense_L)
    calls = count_calls(monkeypatch, Model, "jacobian")
    b = probe_spectrum(model, theta0, 1.0, samples=32, seed=5)
    assert (b.alpha, b.beta, b.row_bound_B, b.lipschitz_L) == reference
    assert calls == []


@pytest.mark.parametrize("zoo_seed", range(4))
@pytest.mark.parametrize("family", ["linear", "glm", "net"])
def test_probe_stays_inside_the_analytic_envelopes(family, zoo_seed):
    # From gamma <= dphi <= Gamma: J = diag(dphi) X for a GLM, and for the net
    # J J^T = (D D^T) * X X^T with rows of D of norm <= Gamma ||v|| = Gamma (Schur).
    model, theta = model_zoo(zoo_seed)[family]
    b = probe_spectrum(model, theta, 1.5, samples=16, seed=zoo_seed)
    sv = np.linalg.svd(model.X, compute_uv=False)
    act = model.act
    slack = 1e-12 * b.beta  # rounding slack, far above a dense SVD's 2 n p u ||J||
    assert b.beta <= act.big_gamma * sv[0] + slack
    assert b.row_bound_B <= act.big_gamma * np.linalg.norm(model.X, axis=1).max() + slack
    if family != "net":  # n <= p, so sigma_min(X) is the n-th singular value
        assert act.gamma * sv[-1] <= b.alpha + slack


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
    factor_calls = count_calls(monkeypatch, m, "factors")
    builds = count_calls(monkeypatch, geometry, "kron_rows")
    with pytest.raises(CapacityError):
        verify_assumptions(m, make_bounds(1.0, 1.0, n=2001, p=2001), samples=4, seed=0)
    assert factor_calls == [] and builds == []


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
