import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from overparam.bounds import (
    BoundReport,
    GLMTheoremTerms,
    check_gd_theorem,
    check_glm_theorem,
    check_lower_bound,
    check_pl_theorems,
    check_sgd_theorem,
    check_tight_line,
    closest_optimum_glm,
    invert_activation,
    make_lower_bound_instance,
    tight_line_coefficient,
)
from overparam.descent import GeneralLoss, OptimConfig, run_gd, run_pl_gd, run_sgd
from overparam.geometry import gd_plan, probe_spectrum, sgd_plan
from overparam.models import (
    GLMModel,
    LinearModel,
    identity_activation,
    softplus_linear,
    tanh_linear,
)
from overparam.oracle import pseudo_inverse_solution


def probed(model, theta0, radius_scale=4.0, samples=24, seed=0):
    misfit0 = model.misfit(theta0)
    sv = np.linalg.svd(model.jacobian(theta0), compute_uv=False)
    radius = max(radius_scale * misfit0 / max(sv[-1], 1e-12), 1e-3)
    return probe_spectrum(model, theta0, radius, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Lower-bound construction
# ---------------------------------------------------------------------------

def test_make_lower_bound_tight_upper_reference():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    assert_allclose(model.X, np.diag([1.0, 2.0]))
    assert_allclose(model.y, [0.0, 4.0])
    assert_allclose(theta0, [0.0, 0.0])


def test_make_lower_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_lower_bound_instance(2.0, 1.0, p=2, mode="tight-upper")
    with pytest.raises(ValueError):
        make_lower_bound_instance(1.0, 2.0, p=1, mode="tight-upper")
    with pytest.raises(ValueError):
        make_lower_bound_instance(1.0, 2.0, p=2, mode="loose")


def test_tight_upper_run_stays_on_line():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    traj = run_gd(model, theta0, OptimConfig(eta=0.5 / 4.0, max_iters=2000))
    report = check_tight_line(traj, tight_line_coefficient(1.0, 2.0, "tight-upper"))
    assert report.all_passed


def test_tight_lower_inequality_everywhere_and_equality_on_ray():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=3, mode="tight-lower")
    y_norm = float(np.linalg.norm(model.y))
    rng = np.random.default_rng(0)
    for _ in range(200):
        theta = rng.standard_normal(3) * rng.uniform(0, 5)
        lhs = model.misfit(theta) + 1.0 * np.linalg.norm(theta)
        assert lhs >= y_norm - 1e-9 * y_norm
    # equality along the ray through the smallest-norm row direction
    for t in np.linspace(0.0, 2.0, 11):
        theta = np.zeros(3)
        theta[0] = t
        lhs = model.misfit(theta) + 1.0 * np.linalg.norm(theta)
        assert lhs == pytest.approx(y_norm, rel=1e-12)


def test_modes_coincide_when_alpha_equals_beta():
    up, _ = make_lower_bound_instance(3.0, 3.0, p=2, mode="tight-upper")
    low, _ = make_lower_bound_instance(3.0, 3.0, p=2, mode="tight-lower")
    assert np.linalg.norm(up.y) == pytest.approx(np.linalg.norm(low.y))


# ---------------------------------------------------------------------------
# check_lower_bound
# ---------------------------------------------------------------------------

def test_lower_bound_equality_at_start():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    traj = run_gd(model, theta0, OptimConfig(eta=1e-6, max_iters=1))
    assert check_lower_bound(traj, beta=2.0).all_passed


def test_lower_bound_holds_on_linear_run():
    rng = np.random.default_rng(1)
    model = LinearModel(rng.standard_normal((3, 6)), rng.standard_normal(3))
    theta0 = rng.standard_normal(6)
    beta = float(np.linalg.norm(model.X, 2))
    traj = run_gd(model, theta0, OptimConfig(eta=0.5 / beta**2, max_iters=300))
    assert check_lower_bound(traj, beta).all_passed


def test_lower_bound_flags_understated_beta():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    traj = run_gd(model, theta0, OptimConfig(eta=0.125, max_iters=200))
    report = check_lower_bound(traj, beta=1.0)  # understated by 2x
    assert report.has_failure


# ---------------------------------------------------------------------------
# check_gd_theorem
# ---------------------------------------------------------------------------

def test_gd_checks_trivial_at_zero_misfit():
    from overparam.geometry import TheoryPlan

    # misfit0 = 0: every slack is trivially satisfied
    model = LinearModel(np.eye(2), np.zeros(2))
    theta0 = np.zeros(2)
    bounds = probe_spectrum(model, theta0, radius=1.0, samples=8, seed=0)
    traj = run_gd(model, theta0, OptimConfig(eta=0.1, max_iters=3))
    plan = TheoryPlan(radius_R=1.0, eta=0.1, rate=0.9, regime="bounded", lam=0.5,
                      zeta=0.25)
    report = check_gd_theorem(traj, plan, bounds)
    assert report.all_passed


def test_gd_checks_pass_on_mild_glm():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 40))
    y = rng.standard_normal(6)
    model = GLMModel(X, y, tanh_linear(0.1))
    theta0 = rng.standard_normal(40) * 0.05
    bounds = probed(model, theta0)
    plan = gd_plan(bounds, model.misfit(theta0), lam=0.5)
    traj = run_gd(model, theta0, OptimConfig(eta=plan.eta, max_iters=1500,
                                             record_thetas=True))
    report = check_gd_theorem(traj, plan, bounds,
                              theta_star=closest_optimum_glm(model, theta0))
    assert report.all_passed, report.to_text()


def test_gd_checks_fail_on_divergent_step():
    rng = np.random.default_rng(3)
    model = GLMModel(rng.standard_normal((4, 12)), rng.standard_normal(4),
                     tanh_linear(0.3))
    theta0 = rng.standard_normal(12) * 0.1
    bounds = probed(model, theta0)
    plan = gd_plan(bounds, model.misfit(theta0), lam=0.5)
    traj = run_gd(model, theta0, OptimConfig(eta=50.0, max_iters=300))
    report = check_gd_theorem(traj, plan, bounds)
    assert report.has_failure


def test_gd_tight_construction_keeps_potential_constant():
    model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
    bounds = probe_spectrum(model, theta0, radius=8.0, samples=8, seed=0)
    plan = gd_plan(bounds, model.misfit(theta0), lam=0.5)
    traj = run_gd(model, theta0, OptimConfig(eta=plan.eta, max_iters=2000))
    report = check_gd_theorem(traj, plan, bounds)
    assert report.all_passed


# ---------------------------------------------------------------------------
# check_sgd_theorem
# ---------------------------------------------------------------------------

def _sgd_family(model, theta0, plan, seeds, iters=150):
    cfg = lambda s: OptimConfig(eta=plan.eta, max_iters=iters, seed=s)
    return [run_sgd(model, theta0, cfg(s)) for s in seeds]


def test_sgd_theorem_single_sample_degenerate():
    model = LinearModel(np.array([[2.0]]), np.array([3.0]))
    theta0 = np.zeros(1)
    bounds = probe_spectrum(model, theta0, radius=4.0, samples=8, seed=0)
    plan = sgd_plan(bounds, model.misfit(theta0), nu=4.0)
    trajs = _sgd_family(model, theta0, plan, range(3))
    report = check_sgd_theorem(trajs, plan, bounds)
    assert report.all_passed, report.to_text()


def test_sgd_theorem_monte_carlo_small():
    model = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    theta0 = np.zeros(2)
    bounds = probe_spectrum(model, theta0, radius=16.0, samples=8, seed=0)
    plan = sgd_plan(bounds, model.misfit(theta0), nu=8.0)
    trajs = _sgd_family(model, theta0, plan, range(60))
    report = check_sgd_theorem(trajs, plan, bounds, max_tau=100)
    assert report.all_passed, report.to_text()


def test_sgd_theorem_inconclusive_without_survivors():
    model = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    theta0 = np.zeros(2)
    bounds = probe_spectrum(model, theta0, radius=16.0, samples=8, seed=0)
    plan = sgd_plan(bounds, model.misfit(theta0), nu=8.0)
    # huge step: every run leaves the half ball
    trajs = [run_sgd(model, theta0, OptimConfig(eta=3.0, max_iters=80, seed=s))
             for s in range(4)]
    report = check_sgd_theorem(trajs, plan, bounds)
    statuses = {row.name: row.status for row in report.rows}
    assert statuses["sgd_mean_square_envelope"] == "inconclusive"


# ---------------------------------------------------------------------------
# Closest optimum for (generalized) linear models
# ---------------------------------------------------------------------------

def test_closest_optimum_identity_no_null_space():
    model = GLMModel(np.eye(2), np.array([1.0, 1.0]), identity_activation())
    out = closest_optimum_glm(model, np.array([5.0, -2.0]))
    assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_closest_optimum_keeps_null_component():
    model = LinearModel(np.array([[1.0, 0.0]]), np.array([2.0]))
    out = closest_optimum_glm(model, np.array([0.0, 5.0]))
    assert_allclose(out, [2.0, 5.0], atol=1e-12)


def test_identity_inverse_is_exact_and_linear_optimum_interpolates():
    rng = np.random.default_rng(6)
    y = np.concatenate([rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8, 6),
                        [0.0, -0.0, 1e300, -5e-324]])
    back = invert_activation(identity_activation(), y)
    assert back.tobytes() == y.tobytes()
    model = LinearModel(rng.standard_normal((4, 9)), rng.standard_normal(4))
    star = closest_optimum_glm(model, rng.standard_normal(9))
    assert model.misfit(star) <= 1e-10 * (1 + np.linalg.norm(model.y))


def two_solve_optimum(model, theta0):
    # theta0's null-space component plus the row-space solution for phi^{-1}(y)
    z = invert_activation(model.act, model.y)
    null_part = theta0 - pseudo_inverse_solution(model.X, model.X @ theta0)
    return null_part + pseudo_inverse_solution(model.X, z)


@pytest.mark.parametrize("act", [tanh_linear(0.3), softplus_linear(0.5), identity_activation()],
                         ids=lambda act: act.name)
def test_closest_optimum_matches_two_solve_formula(act):
    rng = np.random.default_rng(8)
    model = GLMModel(rng.standard_normal((6, 15)), rng.standard_normal(6), act)
    theta0 = rng.standard_normal(15)
    star = closest_optimum_glm(model, theta0)
    old = two_solve_optimum(model, theta0)
    assert np.max(np.abs(star - old)) <= 1e-12 * np.linalg.norm(old)


def test_closest_optimum_with_bisection_inverse():
    rng = np.random.default_rng(4)
    act = tanh_linear(0.3)
    model = GLMModel(rng.standard_normal((5, 11)), rng.standard_normal(5), act)
    theta0 = rng.standard_normal(11)
    star = closest_optimum_glm(model, theta0)
    assert model.misfit(star) <= 1e-10 * (1 + np.linalg.norm(model.y))


def test_invert_activation_roundtrip():
    act = tanh_linear(0.3)
    z = np.linspace(-6, 6, 25)
    back = invert_activation(act, act.phi(z))
    assert_allclose(back, z, atol=1e-11)


def test_invert_softplus_roundtrip_around_phi_of_zero():
    # targets below, at and above phi(0)
    act = softplus_linear(0.5)
    z = np.array([-30.0, -3.0, -1e-9, 0.0, 1e-9, 3.0, 30.0])
    back = invert_activation(act, act.phi(z))
    assert back[3] == 0.0
    assert_allclose(back, z, rtol=0.0, atol=1e-14)


def test_invert_activation_returns_at_large_targets():
    # the float64 spacing at z ~ 1e4 is ~2e-12, wider than any fixed tolerance
    act = tanh_linear(0.3)
    targets = np.array([1e4, -1e4, 2e307, -2e307])
    back = invert_activation(act, targets)
    assert_allclose(act.phi(back), targets, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308, -1e308])
def test_invert_activation_rejects_targets_out_of_range(bad):
    # softplus_linear(0.1) inverts 1e308 to about 1e309, beyond float64
    for act in (tanh_linear(0.3), softplus_linear(0.1)):
        with pytest.raises(ValueError, match="finite"):
            invert_activation(act, np.array([0.5, bad]))


def test_invert_activation_rejects_non_increasing_activation():
    flat = replace(identity_activation(), gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        invert_activation(flat, np.array([1.0]))


@pytest.mark.parametrize("seed", range(3))
def test_closest_optimum_beats_random_alternatives(seed):
    rng = np.random.default_rng(seed)
    act = tanh_linear(0.3)
    X = rng.standard_normal((4, 9))
    model = GLMModel(X, rng.standard_normal(4), act)
    theta0 = rng.standard_normal(9)
    star = closest_optimum_glm(model, theta0)
    base = np.linalg.norm(star - theta0)
    # null-space basis
    _, _, vt = np.linalg.svd(X)
    null_basis = vt[4:]
    for _ in range(100):
        v = null_basis.T @ rng.standard_normal(5)
        alt = star + v
        assert model.misfit(alt) <= 1e-8 * (1 + np.linalg.norm(model.y))
        assert np.linalg.norm(alt - theta0) >= base - 1e-10


def test_closest_optimum_rejects_rank_deficient():
    model = LinearModel(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        closest_optimum_glm(model, np.zeros(2))


# ---------------------------------------------------------------------------
# check_glm_theorem
# ---------------------------------------------------------------------------

def test_glm_theorem_identity_activation_linear_contraction():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 10))
    model = LinearModel(X, rng.standard_normal(4))
    theta0 = rng.standard_normal(10)
    eta = 1.0 / np.linalg.norm(X, 2) ** 2
    traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=400, record_thetas=True))
    star = closest_optimum_glm(model, theta0)
    report = check_glm_theorem(traj, model, star)
    assert report.all_passed, report.to_text()


def test_glm_theorem_on_nonlinear_run():
    rng = np.random.default_rng(6)
    act = tanh_linear(0.3)
    X = rng.standard_normal((5, 20))
    model = GLMModel(X, rng.standard_normal(5), act)
    theta0 = rng.standard_normal(20) * 0.3
    eta = 1.0 / (act.big_gamma**2 * np.linalg.norm(X, 2) ** 2)
    traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=800, record_thetas=True))
    star = closest_optimum_glm(model, theta0)
    report = check_glm_theorem(traj, model, star)
    assert report.all_passed, report.to_text()
    # convergence to the closest optimum specifically
    assert np.linalg.norm(traj.theta_final - star) <= 1e-6 * np.linalg.norm(theta0 - star)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), act=st.sampled_from(["identity", "tanh", "softplus"]),
       n=st.integers(2, 8), extra=st.integers(1, 25), blocks=st.integers(0, 3),
       tail=st.integers(1, 12), record_every=st.sampled_from([1, 2, 5]))
def test_streamed_glm_terms_match_check_glm_theorem_bitwise(seed, act, n, extra, blocks,
                                                            tail, record_every):
    rng = np.random.default_rng(seed)
    act = {"identity": identity_activation(), "tanh": tanh_linear(0.3),
           "softplus": softplus_linear(0.5)}[act]
    model = GLMModel(rng.standard_normal((n, n + extra)), rng.standard_normal(n), act)
    theta0 = rng.standard_normal(n + extra) / np.sqrt(n + extra)
    # A small step, so that no run reaches an exactly zero misfit before its last row.
    eta = 0.05 / (act.big_gamma**2 * np.linalg.norm(model.X, 2) ** 2)
    rows = 64 * blocks + tail  # the recorder's last block holds `tail` rows
    assume(rows > 1)
    cfg = OptimConfig(eta=eta, max_iters=(rows - 1) * record_every, record_every=record_every)
    star = closest_optimum_glm(model, theta0)
    terms = GLMTheoremTerms(model, star, eta)
    streamed = run_gd(model, theta0, cfg, observers=[terms])
    recorded = run_gd(model, theta0, replace(cfg, record_thetas=True))
    assert streamed.thetas is None and len(recorded) == rows
    want = check_glm_theorem(recorded, model, star).rows
    got = terms.report(streamed).rows
    assert [(r.name, r.note, r.passed) for r in got] == [(r.name, r.note, r.passed) for r in want]
    assert _bits([r.max_violation for r in got]) == _bits([r.max_violation for r in want])
    assert _bits([r.tolerance for r in got]) == _bits([r.tolerance for r in want])
    # The last projection took the last 64 rows, not the short last block alone: with
    # one OpenBLAS thread a product of under 13 rows gives its rows other bits.
    assert np.array_equal(terms.window, recorded.thetas[-64:])


@pytest.mark.parametrize("rows, planted", [(40, 0), (40, 39), (193, 1), (193, 63), (193, 64),
                                           (193, 128), (193, 191), (193, 192)])
def test_glm_null_space_drift_reaches_every_recorded_row(rows, planted):
    # One recorded theta moved along the null space of X: the drift's maximum must
    # see it, in a full block, a short one-row last block, or a run of one block.
    rng = np.random.default_rng(3)
    model = GLMModel(rng.standard_normal((5, 12)), rng.standard_normal(5), tanh_linear(0.3))
    theta0 = 0.3 * rng.standard_normal(12)
    eta = 0.05 / np.linalg.norm(model.X, 2) ** 2
    traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=rows - 1, record_thetas=True))
    assert len(traj) == rows
    w = rng.standard_normal(12)
    v = w - model.X.T @ np.linalg.solve(model.X @ model.X.T, model.X @ w)
    thetas = traj.thetas.copy()
    thetas[planted] += 1e-3 * v / np.linalg.norm(v)
    star = closest_optimum_glm(model, theta0)
    clean = check_glm_theorem(traj, model, star).rows[2]
    moved = check_glm_theorem(replace(traj, thetas=thetas), model, star).rows[2]
    assert clean.name == "null_space_component_drift" and clean.passed
    assert moved.max_violation == pytest.approx(1e-3, rel=1e-9) and not moved.passed


def test_glm_theorem_requires_thetas():
    model = LinearModel(np.eye(2), np.zeros(2))
    traj = run_gd(model, np.ones(2), OptimConfig(eta=0.1, max_iters=5))
    with pytest.raises(ValueError):
        check_glm_theorem(traj, model, np.zeros(2))


# ---------------------------------------------------------------------------
# check_pl_theorems
# ---------------------------------------------------------------------------

def test_pl_checks_on_scalar_quadratic():
    m = LinearModel(np.eye(1), np.zeros(1))
    loss = GeneralLoss(value=m.loss, grad=m.gradient, smoothness_L=1.0)
    traj = run_pl_gd(loss, np.ones(1), OptimConfig(eta=1.0, max_iters=10), mu=1.0)
    report = check_pl_theorems(traj, mu=1.0, smoothness_L=1.0, loss0=0.5)
    assert report.all_passed, report.to_text()
    # converges exactly at the no-optimum radius sqrt(2 * 0.5 / 1) = 1
    zero_rows = np.flatnonzero(traj.loss <= 1e-20)
    assert traj.dist_init[zero_rows[0]] == pytest.approx(1.0)


def test_pl_checks_distance_floor_vacuous_without_zero_loss():
    m = LinearModel(np.eye(1), np.zeros(1))
    loss = GeneralLoss(value=m.loss, grad=m.gradient, smoothness_L=1.0)
    traj = run_pl_gd(loss, np.ones(1), OptimConfig(eta=0.1, max_iters=3), mu=1.0)
    report = check_pl_theorems(traj, mu=1.0, smoothness_L=1.0, loss0=0.5)
    rows = {row.name: row for row in report.rows}
    floor = rows["optimum_distance_floor"]
    assert floor.status == "pass"
    assert "vacuously" in floor.note


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def test_bound_report_csv_format():
    report = BoundReport()
    report.add("alpha_check", "gd", -0.5, 1e-9)
    report.add("beta_check", "gd", 2.0, 1e-9, note="x")
    report.add_inconclusive("maybe", "sgd", "no data")
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "name,location,max_violation,pass"
    assert lines[1].startswith("alpha_check,gd,") and lines[1].endswith("pass")
    assert lines[2].endswith("fail")
    assert lines[3].endswith("inconclusive")
    assert not report.all_passed
    assert report.has_failure
