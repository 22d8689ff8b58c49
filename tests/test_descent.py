import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from overparam import descent
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
from overparam.models import (
    GLMModel,
    LinearModel,
    ShallowNetModel,
    identity_activation,
    softplus_linear,
    tanh_linear,
)
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
B = descent._BLOCK_ROWS
EPS = np.finfo(float).eps
COLUMNS = ("iters", "loss", "misfit", "dist_init", "path_len", "step_norm",
           "gd_potential", "sgd_potential", "norm_misfit", "norm_dist")


def _steady_config(model, theta, steps, **extra):
    eta = 0.25 / np.linalg.norm(model.jacobian(theta), 2) ** 2
    return OptimConfig(eta=eta, max_iters=steps, **extra)


def hand_rolled(model, theta0, cfg, direction, anchors=None, alpha=None, mu=None):
    """The two-pass loop: measure the misfit, then direction(tau, theta) from scratch.

    Every norm is np.linalg.norm's; with anchors the sgd_potential column holds
    12 * misfit + (alpha / K) * sum_l ||theta - p_l||. With mu the misfit
    column holds sqrt(loss) and gd_potential sqrt(mu / 8) * dist + sqrt(loss),
    as run_pl_gd records them. Rows are kept every cfg.record_every steps and
    at max_iters; "thetas" holds the kept rows' iterates.
    """
    def measure(th):
        r = model.residual(th)
        if mu is None:
            misfit = float(np.linalg.norm(r))
            return 0.5 * misfit**2, misfit
        loss = 0.5 * float(r @ r)
        return loss, math.sqrt(loss)

    theta = theta0.copy()
    theta0_norm = float(np.linalg.norm(theta0))
    misfit0 = measure(theta0)[1]
    path_len = step_norm = 0.0
    rows, thetas = [], []
    for tau in range(cfg.max_iters + 1):
        if tau > 0:
            step = cfg.eta * direction(tau, theta)
            theta = theta - step
            step_norm = float(np.linalg.norm(step))
            path_len += step_norm
        loss, misfit = measure(theta)
        dist = float(np.linalg.norm(theta - theta0))
        sgd = np.nan
        if anchors is not None:
            dists = np.linalg.norm(anchors.anchors - theta, axis=1)
            sgd = 12.0 * misfit + (alpha / anchors.K) * float(dists.sum())
        gd = misfit + cfg.potential_zeta * path_len if mu is None \
            else math.sqrt(mu / 8.0) * dist + misfit
        if tau % cfg.record_every == 0 or tau == cfg.max_iters:
            rows.append((tau, loss, misfit, dist, path_len, step_norm, gd, sgd,
                         misfit / misfit0, dist / theta0_norm))
            thetas.append(theta)
    return {**dict(zip(COLUMNS, np.array(rows).T)), "thetas": np.array(thetas)}, theta


def assert_same_run(traj, columns, theta, bounds=None):
    """Every column bit for bit, except those `bounds` maps to a per-row bound on
    |run - reference|, and theta_final too unless `bounds` holds "theta"."""
    bounds = bounds or {}
    assert len(traj) == len(columns["iters"])
    for name in COLUMNS:
        got, want = getattr(traj, name), columns[name]
        if name in bounds:
            assert np.all(np.abs(got - want) <= bounds[name]), name
        else:
            assert np.array_equal(got, want, equal_nan=True), name
    if "theta" in bounds:
        assert np.linalg.norm(traj.theta_final - theta) <= bounds["theta"][-1]
    else:
        assert np.array_equal(traj.theta_final, theta)


def anchored_bound(thetas, theta0, anchors, alpha, values):
    """Per-row bound on |sgd_potential - the two-pass loop's| at the same thetas.

    run_sgd documents each anchor distance as within min(sqrt(delta_l),
    delta_l / d_l), delta_l = (p + 5) eps (||t|| + ||a_l||)^2, t = theta - theta0
    and a_l = p_l - theta0; np.linalg.norm's own d_l is within (p + 3) eps d_l;
    the K-term sums and the 12 * misfit sum add 4 eps of the value.
    """
    p = thetas.shape[1]
    dists = np.linalg.norm(thetas[:, None, :] - anchors.anchors, axis=2)  # (rows, K)
    scale = (np.linalg.norm(thetas - theta0, axis=1)[:, None]
             + np.linalg.norm(anchors.anchors - theta0, axis=1))
    delta = (p + 5) * EPS * scale**2
    with np.errstate(divide="ignore", invalid="ignore"):  # fmin drops 0 / 0
        per_anchor = np.fmin(np.sqrt(delta), delta / dists)
    return ((alpha / anchors.K) * (per_anchor + (p + 3) * EPS * dists).sum(axis=1)
            + 4 * EPS * np.abs(values))


def glm_sgd_bounds(model, theta0, cfg, anchors=None, alpha=0.3):
    """Per-step bounds on |GLM SGD - two-pass loop| for every column, and
    "theta" on ||theta_run - theta_ref||, over the two-pass loop's stride-1
    run (returned too, as `hand_rolled` gives it).

    Both loops draw the same indices gamma_tau, so they differ only by
    rounding (eps is the float64 machine epsilon, Gamma, gamma and M the
    activation's slope and curvature bounds):
    - pre-activations: the two-pass loop's x_j . theta is within p eps Z of
      exact and ``descent._glm_sgd``'s kept z within B (p + 3) eps Z, with
      Z = max|c| max||x_i||^2 + max_j |x_j| . |theta|, so together within E.
    - the coefficient c(u) = eta (phi(u) - y) phi'(u) of x_gamma has
      |c'(u)| <= eta a, a = Gamma^2 + |r| M, and rho = 14 eps |c| +
      8 eta Gamma eps (|phi(z)| + |y|) of rounding between the two loops.
    - theta: by the mean value theorem the two steps map a deviation through
      I - eta a' x x^T with a' in [gamma^2 - |r| M, a], whose norm L is
      max(1, 1 - eta (gamma^2 - |r| M) ||x||^2, eta a ||x||^2 - 1), so
      D_tau = L D_{tau-1} + ||x|| (eta a E + rho) + 2 eps ||theta|| bounds
      the deviation; |r| is widened by Gamma (||x|| D + E) to cover a'.
    - columns: the residual moves by Gamma (||X|| D + sqrt(n) E) plus
      phi's rounding, the step by ||x|| (eta a (||x|| D + E) + rho), and the
      rest follow from those with a few eps of each value.
    """
    X, y, act, eta = model.X, model.y, model.act, cfg.eta
    n, p = X.shape
    indices = sgd_index_stream(cfg.seed, n, cfg.max_iters)
    full, _ = hand_rolled(model, theta0, replace(cfg, record_every=1),
                          lambda tau, th: model.per_sample_gradient(th, int(indices[tau - 1])),
                          anchors=anchors, alpha=alpha)
    thetas = full["thetas"]
    steps = len(thetas) - 1
    Z = thetas @ X.T
    phi = act.phi(Z)
    at = (np.arange(steps), indices[:steps])
    x_norm = np.linalg.norm(X, axis=1)[indices[:steps]]
    r = phi[at] - y[indices[:steps]]
    c = eta * r * act.dphi(Z[at])
    E = (B * (p + 3) + p) * EPS * (np.max(np.abs(c), initial=0.0) * np.max(x_norm) ** 2
                                   + np.max(np.abs(thetas) @ np.abs(X).T))
    rho = 14 * EPS * np.abs(c) + 8 * eta * act.big_gamma * EPS * (np.abs(phi[at])
                                                                  + np.abs(y[indices[:steps]]))
    D, dc = np.zeros(steps + 1), np.zeros(steps + 1)
    for k in range(steps):
        r_k = abs(r[k]) + act.big_gamma * (x_norm[k] * D[k] + E)
        a = act.big_gamma**2 + r_k * act.curvature_m
        L = max(1.0, 1.0 - eta * (act.gamma**2 - r_k * act.curvature_m) * x_norm[k] ** 2,
                eta * a * x_norm[k] ** 2 - 1.0)
        dc[k + 1] = eta * a * (x_norm[k] * D[k] + E) + rho[k]
        D[k + 1] = (L * D[k] + x_norm[k] * (eta * a * E + rho[k])
                    + 2 * EPS * np.linalg.norm(thetas[k + 1]))
    misfit = act.big_gamma * (np.linalg.norm(X, 2) * D + math.sqrt(n) * E) \
        + 8 * EPS * np.linalg.norm(np.abs(phi) + np.abs(y), axis=1) + 2 * n * EPS * full["misfit"]
    step = np.concatenate([[0.0], x_norm]) * dc + (p + 3) * EPS * full["step_norm"]
    path = np.cumsum(step) + (np.arange(steps + 1) + 1) * EPS * full["path_len"]
    dist = D + (p + 3) * EPS * (full["dist_init"] + np.linalg.norm(thetas, axis=1))
    bounds = {
        "theta": D, "iters": 0.0, "misfit": misfit, "step_norm": step, "path_len": path,
        "loss": (full["misfit"] + misfit) * misfit + 2 * EPS * full["loss"],
        "dist_init": dist,
        "gd_potential": misfit + cfg.potential_zeta * path + 2 * EPS * full["gd_potential"],
        "norm_misfit": misfit / full["misfit"][0] + 2 * EPS * full["norm_misfit"],
        "norm_dist": dist / (np.linalg.norm(theta0) or 1.0) + 2 * EPS * full["norm_dist"],
    }
    if anchors is not None:
        bounds["sgd_potential"] = (12 * misfit + alpha * D + 2 * EPS * full["sgd_potential"]
                                   + anchored_bound(thetas, theta0, anchors, alpha,
                                                    full["sgd_potential"]))
    return bounds, full


def _anchored_bounds(columns, theta0, anchors, alpha=0.3):
    """assert_same_run's bounds for a run on the reference's thetas: none without
    anchors, else the anchored potential's."""
    if anchors is None:
        return {}
    return {"sgd_potential": anchored_bound(columns["thetas"], theta0, anchors, alpha,
                                            columns["sgd_potential"])}


def assert_glm_sgd_tracks_two_pass_loop(model, theta0, cfg, anchors=None, alpha=0.3):
    """run_sgd on a GLM against the two-pass loop, every recorded row within
    ``glm_sgd_bounds``; the recorded thetas too when cfg records them. The run
    may stop at tol (a misfit of exactly 0 when cfg.tol_misfit is 0), the loop
    not: the run's rows are then compared with the loop's rows of the same
    iterations."""
    bounds, full = glm_sgd_bounds(model, theta0, cfg, anchors, alpha)
    traj = run_sgd(model, theta0, cfg, anchors=anchors, alpha=alpha)
    assert traj.termination in ("max_iters", "tol")
    rows = traj.iters
    assert np.isfinite(traj.sgd_potential).all() == (anchors is not None)
    kept = {name: full[name][rows] for name in COLUMNS}
    assert_same_run(traj, kept, full["thetas"][rows[-1]],
                    {name: np.broadcast_to(bound, full["iters"].shape)[rows]
                     for name, bound in bounds.items()})
    if cfg.record_thetas:
        deviation = np.linalg.norm(traj.thetas - full["thetas"][rows], axis=1)
        assert np.all(deviation <= bounds["theta"][rows])


def _run_pl_on_model_loss(model, theta, cfg):
    return run_pl_gd(model_loss(model), theta, cfg, mu=1.0)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("runner", [run_gd, run_sgd, _run_pl_on_model_loss],
                         ids=["gd", "sgd", "pl"])
def test_each_step_runs_one_forward_pass(name, runner, monkeypatch):
    # GLM SGD keeps X theta between steps and takes it exactly once a block of
    # B steps, without phi: one pre_activations call a block and no predictions.
    model, theta = model_zoo(2)[name]
    steps = B + 7
    cfg = _steady_config(model, theta, steps, seed=5)
    glm_sgd = runner is run_sgd and isinstance(model, GLMModel)
    calls = {"predictions": [], "pre_activations": []}
    for method in calls if isinstance(model, GLMModel) else ["predictions"]:
        forward = getattr(type(model), method)

        def counted(self, th, _calls=calls[method], _forward=forward):
            _calls.append(1)
            return _forward(self, th)

        monkeypatch.setattr(type(model), method, counted)
    traj = runner(model, theta, cfg)
    assert traj.termination == "max_iters" and int(traj.iters[-1]) == steps
    if glm_sgd:
        assert (len(calls["predictions"]), len(calls["pre_activations"])) == (0, 2)
    else:
        assert len(calls["predictions"]) == steps + 1


@pytest.mark.parametrize("name", FAMILIES)
def test_steps_go_through_the_public_gradient_methods(name, monkeypatch):
    # Profilers and tracers time descent steps by these two method names; GLM
    # SGD steps on its kept X theta and calls neither.
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
    assert seen == ([] if isinstance(model, GLMModel) else ["per_sample_gradient"] * steps)


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
    # Bit for bit off the GLMs, but for the anchored potential's centred product;
    # GLM SGD within glm_sgd_bounds, since its kept X theta moves the last bits.
    model, theta = model_zoo(seed)[name]
    cfg = _steady_config(model, theta, 40, seed=seed, potential_zeta=0.5)
    indices = sgd_index_stream(seed, model.n, cfg.max_iters)
    packing = build_packing(theta, radius_Rp=2.0, epsilon=0.5, K=6, seed=seed)
    for anchors in (None, packing):
        if isinstance(model, GLMModel):
            assert_glm_sgd_tracks_two_pass_loop(model, theta, cfg, anchors, alpha=0.3)
            continue
        columns, theta_final = hand_rolled(
            model, theta, cfg,
            lambda tau, th: model.per_sample_gradient(th, int(indices[tau - 1])),
            anchors=anchors, alpha=0.3)
        traj = run_sgd(model, theta, cfg, anchors=anchors, alpha=0.3)
        assert np.isfinite(traj.sgd_potential).all() == (anchors is not None)
        assert_same_run(traj, columns, theta_final, _anchored_bounds(columns, theta, anchors))


@settings(max_examples=40, deadline=None)
@given(activation=st.sampled_from(["identity", "tanh_linear", "softplus_linear"]),
       scale=st.floats(0.05, 0.6), n=st.integers(1, 6), extra=st.integers(0, 6),
       steps=st.integers(B + 1, 3 * B), record_every=st.sampled_from([1, 3]),
       anchored=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_glm_sgd_tracks_two_pass_loop_property(activation, scale, n, extra, steps,
                                               record_every, anchored, seed):
    # Runs cross the exact X theta refresh every B steps; n <= p.
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((n, n + extra)), rng.standard_normal(n)
    if activation == "identity":
        model = LinearModel(X, y)
    else:
        act = tanh_linear(scale) if activation == "tanh_linear" else softplus_linear(1.0 - scale)
        model = GLMModel(X, y, act)
    theta = rng.standard_normal(n + extra)
    cfg = _steady_config(model, theta, steps, seed=seed, potential_zeta=0.5,
                         record_every=record_every, record_thetas=True)
    anchors = build_packing(theta, radius_Rp=2.0, epsilon=0.5, K=4, seed=seed) \
        if anchored else None
    assert_glm_sgd_tracks_two_pass_loop(model, theta, cfg, anchors, alpha=0.3)


def test_theta_on_an_anchor_stays_within_the_documented_bound():
    # The centred product's worst case: row 5's theta is anchor 1 itself, so that
    # squared distance is a difference of rounding size, and its root up to sqrt(delta).
    model, theta = model_zoo(6)["net"]
    cfg = _steady_config(model, theta, 12, seed=3, record_thetas=True)
    hit = run_sgd(model, theta, cfg).thetas[5]
    gap = float(np.linalg.norm(hit - theta))
    anchors = AnchorSet(anchors=np.array([theta, hit]), epsilon=gap, radius_Rp=gap,
                        center=theta, K=2)
    indices = sgd_index_stream(cfg.seed, model.n, cfg.max_iters)
    columns, theta_final = hand_rolled(
        model, theta, cfg, lambda tau, th: model.per_sample_gradient(th, int(indices[tau - 1])),
        anchors=anchors, alpha=0.3)
    traj = run_sgd(model, theta, cfg, anchors=anchors, alpha=0.3)
    assert np.array_equal(traj.thetas[5], anchors.anchors[1])
    bounds = _anchored_bounds(columns, theta, anchors)
    assert_same_run(traj, columns, theta_final, bounds)
    # there the bound is the square root of a rounding error, not a relative one
    assert bounds["sgd_potential"][5] > 1e3 * max(bounds["sgd_potential"][[4, 6]])


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
# Rows recorded in blocks: the bits of a row at a time, across block boundaries
# ---------------------------------------------------------------------------

KINDS = ("gd", "sgd", "sgd_anchored", "pl")
SGD_KINDS = ("sgd", "sgd_anchored")


def _kind(kind, model, theta):
    """(run, reference): a run of `kind` from theta under a config, and the
    two-pass loop's record of the same run, with its bounds for assert_same_run."""
    def gradient(tau, th):
        return model.gradient(th)

    if kind == "gd":
        return (lambda cfg: run_gd(model, theta, cfg),
                lambda cfg: (*hand_rolled(model, theta, cfg, gradient), {}))
    if kind == "pl":
        return (lambda cfg: _run_pl_on_model_loss(model, theta, cfg),
                lambda cfg: (*hand_rolled(model, theta, cfg, gradient, mu=1.0), {}))
    anchors = None
    if kind == "sgd_anchored":
        anchors = build_packing(theta, radius_Rp=2.0, epsilon=0.5, K=6, seed=1)

    def reference(cfg):
        indices = sgd_index_stream(cfg.seed, model.n, cfg.max_iters)
        columns, theta_final = hand_rolled(
            model, theta, cfg,
            lambda tau, th: model.per_sample_gradient(th, int(indices[tau - 1])),
            anchors=anchors, alpha=0.3)
        return columns, theta_final, _anchored_bounds(columns, theta, anchors)

    return lambda cfg: run_sgd(model, theta, cfg, anchors=anchors, alpha=0.3), reference


def _block_model(kind):
    """The block-boundary tests' model: glm, but net for SGD, whose steps on a GLM
    keep X theta and so match the two-pass loop only to rounding."""
    return model_zoo(6)["net" if kind in SGD_KINDS else "glm"]


def assert_same_recording(traj, reference, record_thetas):
    columns, theta_final, bounds = reference
    assert_same_run(traj, columns, theta_final, bounds)
    if record_thetas:
        assert traj.thetas.flags.c_contiguous
        assert np.array_equal(traj.thetas, columns["thetas"])
    else:
        assert traj.thetas is None


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("record_thetas", [False, True])
def test_rows_recorded_in_blocks_match_two_pass_loop_bitwise(kind, steps, record_every,
                                                             record_thetas):
    model, theta = _block_model(kind)
    cfg = _steady_config(model, theta, steps, seed=3, potential_zeta=0.5,
                         record_every=record_every, record_thetas=record_thetas)
    run, reference = _kind(kind, model, theta)
    traj = run(cfg)
    assert traj.termination == "max_iters"
    assert_same_recording(traj, reference(cfg), record_thetas)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("record_every", [1, 3])
def test_tol_exit_inside_a_block_matches_two_pass_loop(kind, record_every):
    model, theta = _block_model(kind)
    cfg = _steady_config(model, theta, 2 * B + 1, seed=3, potential_zeta=0.5,
                         record_every=record_every, record_thetas=True)
    run, reference = _kind(kind, model, theta)
    misfits = run(replace(cfg, record_every=1)).misfit[:B + B // 2 + 1]
    stop = int(np.argmin(misfits))
    assert B < stop < 2 * B
    traj = run(replace(cfg, tol_misfit=misfits[stop]))
    assert traj.termination == "tol" and int(traj.iters[-1]) == stop
    assert_same_recording(traj, reference(replace(cfg, max_iters=stop)), True)


@pytest.mark.parametrize("kind", ["gd", "sgd", "pl"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_non_finite_exit_after_a_block_matches_two_pass_loop(kind, record_every):
    # theta grows by a factor g a step, so r @ r overflows once g^(2 tau) > 1.8e308:
    # at tau = 96 for B = 64, inside the second block. SGD runs on the one-unit
    # identity net, the same map: GLM SGD's step norm |c| ||x|| does not overflow
    # where the two-pass loop's norm of the step, a square root of its square, does.
    g = 10.0 ** (154.2 / (B + B // 2))
    model, theta = LinearModel(np.eye(1), np.zeros(1)), np.ones(1)
    if kind == "sgd":
        model = ShallowNetModel(np.eye(1), np.zeros(1), np.ones(1), identity_activation())
    cfg = OptimConfig(eta=1.0 + g, max_iters=10 * B, seed=3, record_every=record_every,
                      record_thetas=True)
    run, reference = _kind(kind, model, theta)
    traj = run(cfg)
    assert traj.termination == "non_finite" and B < traj.abort_iter < 2 * B
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference(replace(cfg, max_iters=traj.abort_iter))
    assert_same_recording(traj, expected, True)


@pytest.mark.parametrize("kind", ["gd", "pl"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_stationary_exit_after_blocks_matches_two_pass_loop(kind, record_every):
    # theta_1 shrinks exactly fourfold a step to the subnormal 2^-1074, which the
    # 538th step takes to 0; the gradient then vanishes while the misfit stays 1
    model = LinearModel(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))
    theta = np.array([1.0, 0.5])
    cfg = OptimConfig(eta=0.75, max_iters=1000, record_every=record_every, record_thetas=True)
    run, reference = _kind(kind, model, theta)
    traj = run(cfg)
    assert traj.termination == "stationary" and int(traj.iters[-1]) == 538
    assert_same_recording(traj, reference(replace(cfg, max_iters=538)), True)


@settings(max_examples=25, deadline=None)
@given(steps=st.integers(1, 3 * B), record_every=st.integers(1, 5),
       kind=st.sampled_from(["sgd", "sgd_anchored"]), record_thetas=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sgd_rows_recorded_in_blocks_match_two_pass_loop_property(steps, record_every, kind,
                                                                  record_thetas, seed):
    model, theta = model_zoo(7)["net"]
    cfg = _steady_config(model, theta, steps, seed=seed, potential_zeta=0.5,
                         record_every=record_every, record_thetas=record_thetas)
    run, reference = _kind(kind, model, theta)
    assert_same_recording(run(cfg), reference(cfg), record_thetas)


# ---------------------------------------------------------------------------
# GLM SGD a block at a time: the bits of a step at a time on the kept X theta
# ---------------------------------------------------------------------------

def glm_sgd_per_step(model, theta0, cfg, anchors=None, alpha=0.3):
    """GLM SGD a step at a time, on the kept z = X theta taken exactly every B steps.

    A step on sample i is c = eta r_i phi'(z_i), z <- z - c G[i] (G = X X^T),
    theta <- theta - c x_i, step norm |c| ||x_i||, then r = phi(z) - y and
    misfit = sqrt(r @ r); a row whose step norm and theta are both not
    finite gets loss = misfit = inf unmeasured. The loop stops at tol, at a
    non-finite loss ("non_finite") and at max_iters, keeping the rows due
    under record_every and the last one. dist_init takes each row's
    sqrt(d @ d); sgd_potential comes from the centred product over B kept
    rows at a time, as run_sgd documents. Returns the columns, "thetas"
    (the kept rows' iterates), theta_final, the termination and abort_iter.
    """
    X, y, act, eta = model.X, model.y, model.act, cfg.eta
    gram, row_norms = X @ X.T, np.sqrt(np.vecdot(X, X))
    indices = sgd_index_stream(cfg.seed, model.n, cfg.max_iters)

    def measure(z):
        r = act.phi(z) - y
        misfit = math.sqrt(r @ r)
        return 0.5 * misfit**2, misfit, r

    theta = np.array(theta0, dtype=float)
    z = X @ theta
    loss, misfit, r = measure(z)
    path_len = 0.0
    rows = [(0, loss, misfit, path_len, 0.0, theta)]
    termination, abort_iter = "max_iters", None
    with np.errstate(over="ignore", invalid="ignore"):  # a run's overflow, as run_sgd's
        for tau in range(1, cfg.max_iters + 1):
            if misfit <= cfg.tol_misfit:  # at the start; a later tol row breaks below
                termination = "tol"
                break
            i = indices[tau - 1]
            c = eta * r[i] * act.dphi(z[i])
            z = z - c * gram[i]
            theta = theta - c * X[i]
            step_norm = abs(c) * row_norms[i]
            path_len += step_norm
            if math.isfinite(step_norm) or np.isfinite(theta).all():
                if tau % B == 0:
                    z = X @ theta
                loss, misfit, r = measure(z)
            else:
                loss = misfit = math.inf
            stop = not math.isfinite(loss) or misfit <= cfg.tol_misfit
            if tau % cfg.record_every == 0 or stop or tau == cfg.max_iters:
                rows.append((tau, loss, misfit, path_len, step_norm, theta))
            if stop:
                termination = "tol" if math.isfinite(loss) else "non_finite"
                abort_iter = None if math.isfinite(loss) else tau
                break
        iters, losses, misfits, paths, norms, thetas = (np.array(v) for v in zip(*rows))
        D = thetas - theta0
        sq = np.array([d @ d for d in D])
        dist = np.sqrt(sq)
        sgd = np.full(len(rows), np.nan)
        if anchors is not None:
            centred = anchors.anchors - theta0
            for first in range(0, len(rows), B):
                kept = slice(first, first + B)
                dist_sq = (sq[kept, None] - 2.0 * (D[kept] @ centred.T)
                           + np.vecdot(centred, centred))
                sgd[kept] = 12.0 * misfits[kept] + (alpha / anchors.K) * np.sqrt(
                    np.maximum(dist_sq, 0.0)).sum(axis=1)
        theta0_norm = float(np.linalg.norm(theta0))
        columns = dict(zip(COLUMNS, (
            iters, losses, misfits, dist, paths, norms, misfits + cfg.potential_zeta * paths, sgd,
            misfits / (misfits[0] if misfits[0] > 0 else 1.0), dist / (theta0_norm or 1.0))))
    return {**columns, "thetas": thetas}, theta, termination, abort_iter


def _glm(activation, X, y):
    if activation == "identity":
        return LinearModel(X, y)
    return GLMModel(X, y, tanh_linear(0.3) if activation == "tanh_linear"
                    else softplus_linear(0.5))


def assert_glm_sgd_matches_per_step_loop(model, theta, cfg, anchored):
    anchors = build_packing(theta, radius_Rp=2.0, epsilon=0.5, K=4, seed=1) \
        if anchored else None
    columns, theta_final, termination, abort_iter = glm_sgd_per_step(
        model, theta, cfg, anchors, alpha=0.3)
    traj = run_sgd(model, theta, cfg, anchors=anchors, alpha=0.3)
    assert (traj.termination, traj.abort_iter) == (termination, abort_iter)
    assert_same_recording(traj, (columns, theta_final, {}), cfg.record_thetas)
    return traj


@settings(max_examples=40, deadline=None)
@given(activation=st.sampled_from(["identity", "tanh_linear", "softplus_linear"]),
       n=st.integers(1, 6), extra=st.integers(0, 6),
       max_iters=st.sampled_from([1, B - 1, B, B + 1, 200]),
       record_every=st.sampled_from([1, 2, 7, B, B + 1]), anchored=st.booleans(),
       stop=st.sampled_from(["max_iters", "tol", "overflow"]), growth=st.floats(2.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_glm_sgd_matches_per_step_loop_bitwise_property(activation, n, extra, max_iters,
                                                         record_every, anchored, stop,
                                                         growth, seed):
    # Blocks of B steps, cut at a tol or overflow row anywhere in a block; an
    # overflow comes from eta = 10^growth / max ||x_i||^2, which multiplies the
    # sampled r_i by up to about 10^growth a step.
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((n, n + extra)), rng.standard_normal(n)
    model, theta = _glm(activation, X, y), rng.standard_normal(n + extra)
    cfg = _steady_config(model, theta, max_iters, seed=seed, potential_zeta=0.5,
                         record_every=record_every, record_thetas=True)
    if stop == "tol":
        misfits = run_sgd(model, theta, replace(cfg, record_every=1)).misfit
        cfg = replace(cfg, tol_misfit=misfits[rng.integers(len(misfits))])
    elif stop == "overflow":
        cfg = replace(cfg, eta=10.0**growth / np.max(np.vecdot(X, X)))
    assert_glm_sgd_matches_per_step_loop(model, theta, cfg, anchored)


@pytest.mark.parametrize("activation", ["identity", "tanh_linear", "softplus_linear"])
@pytest.mark.parametrize("stop", ["tol", "non_finite"])
@pytest.mark.parametrize("anchored", [False, True])
def test_glm_sgd_stops_inside_a_block_as_the_per_step_loop(activation, stop, anchored):
    rng = np.random.default_rng(4)
    X, y = rng.standard_normal((10, 30)) / 5.0, rng.standard_normal(10)
    model, theta = _glm(activation, X, y), 0.1 * rng.standard_normal(30)
    cfg = _steady_config(model, theta, 4 * B, seed=2, record_every=5, record_thetas=True)
    if stop == "tol":
        misfits = run_sgd(model, theta, replace(cfg, record_every=1)).misfit
        cfg = replace(cfg, tol_misfit=misfits[B + B // 2])
    else:
        cfg = replace(cfg, eta=500.0 / np.max(np.vecdot(X, X)))
    traj = assert_glm_sgd_matches_per_step_loop(model, theta, cfg, anchored)
    last = int(traj.iters[-1])
    assert traj.termination == stop and B < last < 3 * B and last % B
    assert traj.abort_iter == (last if stop == "non_finite" else None)


def test_glm_sgd_step_overflowing_theta_records_an_unmeasured_row():
    # c = eta r_i overflows to -inf: theta turns infinite, and the kept z - c G[i]
    # takes inf * 0 = nan from G's zero entry, so only the rule keeps misfit inf.
    model = LinearModel(np.array([[1.0, 1.0], [1.0, -1.0]]), np.full(2, 5.0))
    cfg = OptimConfig(eta=1e308, max_iters=3, seed=0, record_thetas=True)
    traj = assert_glm_sgd_matches_per_step_loop(model, np.zeros(2), cfg, anchored=False)
    assert (traj.termination, traj.abort_iter) == ("non_finite", 1)
    assert traj.misfit[-1] == traj.loss[-1] == math.inf


def test_glm_sgd_takes_no_exact_x_theta_of_an_overflowed_theta():
    # r grows about 10^2.5-fold a step: r @ r overflows at iteration 65, and theta
    # itself before the block's end at 128, where X theta would refuse it.
    model = LinearModel(np.eye(1), np.zeros(1))
    cfg = OptimConfig(eta=1.0 + 10**2.5, max_iters=2 * B, seed=0, record_thetas=True)
    traj = assert_glm_sgd_matches_per_step_loop(model, np.full(1, 1e-6), cfg, anchored=False)
    assert (traj.termination, traj.abort_iter) == ("non_finite", B + 1)


def test_glm_sgd_squares_each_misfit_as_the_per_step_loop():
    # A row's loss is 0.5 * misfit**2 by Python's pow, which here differs from
    # numpy's square of the misfit column at iteration 195 (as measured with glibc).
    rng = np.random.default_rng(0)
    model = GLMModel(rng.standard_normal((40, 100)) / 10.0, rng.standard_normal(40),
                     tanh_linear(0.3))
    theta = 0.1 * rng.standard_normal(100)
    cfg = OptimConfig(eta=0.1, max_iters=200, seed=0, record_thetas=True)
    assert_glm_sgd_matches_per_step_loop(model, theta, cfg, anchored=True)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sgd_run_stopping_early_holds_no_storage_for_its_iteration_budget():
    # 2,000,000 drawn indices alone take 16 MB; the run stops at tol after 35 steps
    m = LinearModel(np.eye(1), np.zeros(1))
    cfg = OptimConfig(eta=0.5, max_iters=2_000_000, tol_misfit=default_tolerance(m.y), seed=0)
    traj, peak = _traced_peak(lambda: run_sgd(m, np.ones(1), cfg))
    assert traj.termination == "tol" and len(traj) < 40
    assert peak < 1 << 20


def test_long_anchored_sgd_run_traces_a_few_megabytes():
    # The benchmark's sgd-drift run: glm n=40 p=100, K=34 anchors, 20,000 steps.
    # Its ten recorded columns take 1.6 MB; one tuple a row took 9.3 MB at peak.
    rng = np.random.default_rng(0)
    model = GLMModel(rng.standard_normal((40, 100)) / 10.0, rng.standard_normal(40),
                     tanh_linear(0.3))
    theta = 0.1 * rng.standard_normal(100)
    anchors = build_packing(theta, radius_Rp=2.0, epsilon=0.5, K=34, seed=0)
    cfg = OptimConfig(eta=0.1, max_iters=20_000, seed=0)
    traj, peak = _traced_peak(lambda: run_sgd(model, theta, cfg, anchors=anchors, alpha=0.3))
    assert traj.termination == "max_iters" and len(traj) == 20_001
    assert peak < 4 << 20


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


@pytest.mark.parametrize("samples", [0, -1])
def test_local_pl_check_refuses_fewer_than_one_sample(samples):
    calls = []
    loss = GeneralLoss(value=lambda th: calls.append(1) or 0.5 * float(th @ th), grad=lambda th: th)
    with pytest.raises(ValueError, match=rf"samples must be >= 1, got {samples}$"):
        local_pl_check(loss, np.zeros(3), radius=1.0, mu=1.0, samples=samples, seed=0)
    assert calls == []


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


def _blocks_of_anchored_and_blank_rows():
    # more than one recorder block, with NaN in every fifth sgd_potential
    model, theta = model_zoo(6)["glm"]
    run, _ = _kind("sgd_anchored", model, theta)
    traj = run(_steady_config(model, theta, 2 * B + 1, seed=3))
    blank = np.arange(len(traj)) % 5 == 2
    return replace(traj, sgd_potential=np.where(blank, np.nan, traj.sgd_potential))


@pytest.mark.parametrize("run", [_divergent_glm_run, _anchored_sgd_run, _stationary_run,
                                 _strided_run, _blocks_of_anchored_and_blank_rows],
                         ids=lambda run: run.__name__.strip("_"))
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
