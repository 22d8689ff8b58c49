import gc
import os
import select
import signal
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from overparam import models
from overparam.models import (
    GLMModel,
    LinearModel,
    LowRankModel,
    Model,
    ShallowNetModel,
    identity_activation,
    softplus_linear,
    tanh_linear,
    vector_norm,
)
from overparam.oracle import average_jacobian, fd_jacobian

from conftest import model_zoo


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("act", [tanh_linear(0.3), tanh_linear(0.05), softplus_linear(0.5)])
def test_activation_bounds_on_grid(act):
    z = np.linspace(-20, 20, 4001)
    d = act.dphi(z)
    assert np.all(d >= act.gamma - 1e-12)
    assert np.all(d <= act.big_gamma + 1e-12)
    assert np.all(np.abs(act.ddphi(z)) <= act.curvature_m + 1e-12)


@given(st.floats(-50, 50), st.floats(0.01, 0.9))
def test_tanh_linear_derivative_bounds_pointwise(z, c):
    act = tanh_linear(c)
    z = np.asarray(z)
    assert act.gamma - 1e-12 <= float(act.dphi(z)) <= act.big_gamma + 1e-12
    assert abs(float(act.ddphi(z))) <= act.curvature_m + 1e-12


@pytest.mark.parametrize("act", [tanh_linear(0.3), softplus_linear(0.5)])
def test_activation_derivatives_match_finite_differences(act):
    z = np.linspace(-4, 4, 41)
    h = 1e-6
    fd1 = (act.phi(z + h) - act.phi(z - h)) / (2 * h)
    fd2 = (act.dphi(z + h) - act.dphi(z - h)) / (2 * h)
    assert_allclose(act.dphi(z), fd1, rtol=1e-8, atol=1e-8)
    assert_allclose(act.ddphi(z), fd2, rtol=1e-6, atol=1e-6)


# ---------------------------------------------------------------------------
# Residual / loss / gradient examples
# ---------------------------------------------------------------------------

def test_residual_identity_map():
    m = LinearModel(np.eye(2), np.zeros(2))
    assert_allclose(m.residual(np.array([1.0, 2.0])), [1.0, 2.0])


def test_residual_glm_identity_activation_reduces_to_linear():
    m = GLMModel(np.eye(1), np.array([3.0]), identity_activation())
    assert_allclose(m.residual(np.array([1.0])), [-2.0])


def test_residual_lowrank_trace():
    m = LowRankModel(np.eye(2)[None, :, :], np.array([0.0]), d=2, r=1)
    assert_allclose(m.residual(np.array([1.0, 1.0])), [2.0])


def test_jacobian_linear_is_constant():
    X = np.random.default_rng(0).standard_normal((3, 5))
    m = LinearModel(X, np.zeros(3))
    for theta in (np.zeros(5), np.ones(5)):
        assert np.array_equal(m.jacobian(theta), X)


def test_jacobian_glm_slope_at_zero():
    m = GLMModel(np.eye(1), np.zeros(1), tanh_linear(0.3))
    assert_allclose(m.jacobian(np.zeros(1)), [[1.3]])


def test_jacobian_net_single_identity_unit_is_X():
    X = np.random.default_rng(1).standard_normal((4, 3))
    m = ShallowNetModel(X, np.zeros(4), np.array([1.0]), identity_activation())
    assert_allclose(m.jacobian(np.zeros(3)), X, rtol=0, atol=0)


@pytest.mark.parametrize("act", [tanh_linear(0.3), softplus_linear(0.5), identity_activation()])
@pytest.mark.parametrize("seed", range(4))
def test_jacobian_is_the_closed_form_bit_for_bit(seed, act):
    # The dense reference of every geometry test: the GLM's diag(dphi(X theta)) X
    # and the net's blocks D[r, j] x_r, each entry one rounded product.
    zoo = model_zoo(seed)
    rng = np.random.default_rng(seed)
    glm_model = zoo["glm"][0]
    glm = GLMModel(glm_model.X, glm_model.y, act)
    theta = rng.standard_normal(glm.p) * 3.0
    assert np.array_equal(glm.jacobian(theta), act.dphi(glm.X @ theta)[:, None] * glm.X)
    net_model = zoo["net"][0]
    net = ShallowNetModel(net_model.X, net_model.y, net_model.v, act)
    theta = rng.standard_normal(net.p) * 3.0
    D = act.dphi(net.X @ net.weights(theta).T) * net.v[None, :]
    want = (D[:, :, None] * net.X[:, None, :]).reshape(net.n, net.p)
    assert np.array_equal(net.jacobian(theta), want)


def model_classes():
    return [cls for cls in vars(models).values()
            if isinstance(cls, type) and issubclass(cls, Model)]


def test_jacobian_is_defined_once_from_the_factors():
    assert [cls for cls in model_classes() if "jacobian" in vars(cls)] == [Model]
    for family, (model, theta) in model_zoo(2).items():
        F, X = model.factors(theta)
        assert F.shape[0] == X.shape[0] == model.n and F.shape[1] * X.shape[1] == model.p
        assert np.array_equal(model.jacobian(theta), models.kron_rows(F, X))


def test_pullback_is_defined_on_model_and_lowrank_only():
    # The low-rank factor is the dense Jacobian, so only that family keeps a closed form.
    assert [cls for cls in model_classes() if "pullback" in vars(cls)] == [Model, LowRankModel]


@pytest.mark.parametrize("act", [tanh_linear(0.3), softplus_linear(0.5), identity_activation()])
@pytest.mark.parametrize("seed", range(4))
def test_pullback_is_the_closed_form_bit_for_bit(seed, act):
    # The GLM's X^T (dphi(X theta) * r) and the net's (D * r)^T X flattened row by
    # row, as the descent loops have always computed them.
    zoo = model_zoo(seed)
    rng = np.random.default_rng(seed)
    glm_model = zoo["glm"][0]
    glm = GLMModel(glm_model.X, glm_model.y, act)
    theta = rng.standard_normal(glm.p) * 3.0
    r = rng.standard_normal(glm.n)
    assert np.array_equal(glm.pullback(theta, r), glm.X.T @ (act.dphi(glm.X @ theta) * r))
    net_model = zoo["net"][0]
    net = ShallowNetModel(net_model.X, net_model.y, net_model.v, act)
    theta = rng.standard_normal(net.p) * 3.0
    r = rng.standard_normal(net.n)
    D = net.v * act.dphi(net.X @ net.weights(theta).T)
    assert np.array_equal(net.pullback(theta, r), ((D * r[:, None]).T @ net.X).reshape(-1))


def test_loss_values():
    m = LinearModel(np.eye(2), np.array([-1.0, -2.0]))
    assert m.loss(np.zeros(2)) == pytest.approx(2.5)  # residual (1, 2)
    m0 = LinearModel(np.eye(2), np.zeros(2))
    assert m0.loss(np.zeros(2)) == 0.0
    md = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    assert md.loss(np.zeros(2)) == pytest.approx(8.0)


def test_gradient_examples():
    m = LinearModel(np.eye(2), np.zeros(2))
    assert_allclose(m.gradient(np.array([1.0, 2.0])), [1.0, 2.0])
    # zero residual point
    md = LinearModel(np.diag([1.0, 2.0]), np.array([1.0, 2.0]))
    assert_allclose(md.gradient(np.array([1.0, 1.0])), [0.0, 0.0], atol=0)
    g = GLMModel(np.array([[2.0]]), np.zeros(1), identity_activation())
    assert_allclose(g.gradient(np.array([1.0])), [4.0])


def test_per_sample_gradient_examples():
    m = LinearModel(np.eye(2), np.zeros(2))
    theta = np.array([1.0, 2.0])
    assert_allclose(m.per_sample_gradient(theta, 0), [1.0, 0.0])
    total = m.per_sample_gradient(theta, 0) + m.per_sample_gradient(theta, 1)
    assert_allclose(total, m.gradient(theta))
    md = LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0]))
    assert_allclose(md.per_sample_gradient(np.zeros(2), 1), [0.0, -8.0])
    with pytest.raises(IndexError):
        m.per_sample_gradient(theta, 2)


def test_dimension_mismatch_raises():
    m = LinearModel(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        m.residual(np.zeros(3))
    with pytest.raises(ValueError):
        m.jacobian(np.array([np.inf, 0.0]))


# ---------------------------------------------------------------------------
# Average Jacobian
# ---------------------------------------------------------------------------

def test_average_jacobian_linear_constant():
    X = np.random.default_rng(2).standard_normal((3, 4))
    m = LinearModel(X, np.zeros(3))
    assert np.array_equal(average_jacobian(m, np.ones(4), -np.ones(4)), X)


def test_average_jacobian_lowrank_midpoint_exact():
    m = LowRankModel(np.eye(2)[None, :, :], np.array([0.0]), d=2, r=1)
    a, b = np.array([2.0, 0.0]), np.zeros(2)
    J = average_jacobian(m, a, b)
    assert_allclose(J, [[2.0, 0.0]])
    assert_allclose(J @ (a - b), m.predictions(a) - m.predictions(b))


@pytest.mark.parametrize("seed", range(6))
def test_average_jacobian_mean_value_identity(family, seed):
    model, theta = model_zoo(seed)[family]
    rng = np.random.default_rng(100 + seed)
    a = theta
    b = theta + rng.standard_normal(model.p)
    J = average_jacobian(model, a, b)
    lhs = model.predictions(a) - model.predictions(b)
    rhs = J @ (a - b)
    tol = 1e-8 if family in ("linear", "glm", "lowrank") else 1e-6
    scale = 1.0 + np.linalg.norm(lhs)
    assert np.linalg.norm(lhs - rhs) <= tol * scale


def test_average_jacobian_glm_degenerate_secant():
    act = tanh_linear(0.3)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = GLMModel(X, np.zeros(2), act)
    a = np.array([0.7, 1.0])
    b = np.array([0.7, -1.0])  # first coordinate of Xa and Xb coincide exactly
    J = average_jacobian(m, a, b)
    assert_allclose(J[0], act.dphi(np.array(0.7)) * X[0])
    assert_allclose(J @ (a - b), m.predictions(a) - m.predictions(b), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Cross-family invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_gradient_equals_jacobian_transpose_residual(family, seed):
    model, theta = model_zoo(seed)[family]
    direct = model.gradient(theta)
    composed = model.jacobian(theta).T @ model.residual(theta)
    assert_allclose(direct, composed, rtol=1e-12, atol=1e-12 * (1 + np.linalg.norm(composed)))


@pytest.mark.parametrize("seed", range(3))
def test_measured_residual_gives_bitwise_same_gradients(family, seed):
    model, theta = model_zoo(seed)[family]
    r = model.residual(theta)
    assert np.array_equal(model.gradient(theta, r), model.gradient(theta))
    for i in range(model.n):
        assert np.array_equal(model.per_sample_gradient(theta, i, r),
                              model.per_sample_gradient(theta, i))


@pytest.mark.parametrize("name", ["linear", "glm", "lowrank", "net"])
@given(st.integers(0, 4), st.data())
def test_pullback_equals_jacobian_transpose_product(name, seed, data):
    model, _ = model_zoo(seed)[name]
    theta = data.draw(arrays(np.float64, model.p, elements=st.floats(-3, 3)))
    r = data.draw(arrays(np.float64, model.n, elements=st.floats(-10, 10)))
    J = model.jacobian(theta)
    composed = J.T @ r
    assert np.linalg.norm(model.pullback(theta, r) - composed) <= \
        1e-12 * np.linalg.norm(J) * np.linalg.norm(r)


@pytest.mark.parametrize("seed", range(20))
def test_jacobian_matches_finite_differences(family, seed):
    model, theta = model_zoo(seed)[family]
    J = model.jacobian(theta)
    J_fd = fd_jacobian(model, theta)
    assert np.linalg.norm(J - J_fd) <= 1e-5 * (1.0 + np.linalg.norm(J))


@pytest.mark.parametrize("seed", range(3))
def test_jacobian_row_shortcut_agrees_with_full_matrix(family, seed):
    model, theta = model_zoo(seed)[family]
    J = model.jacobian(theta)
    for i in range(model.n):
        assert np.allclose(model.jacobian_row(theta, i), J[i], rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", range(5))
def test_per_sample_gradients_sum_to_gradient(family, seed):
    model, theta = model_zoo(seed)[family]
    total = sum(model.per_sample_gradient(theta, i) for i in range(model.n))
    g = model.gradient(theta)
    assert_allclose(total, g, rtol=1e-12, atol=1e-12 * (1 + np.linalg.norm(g)))


PUBLIC_THETA_CALLS = {
    "predictions": lambda m, th: m.predictions(th),
    "residual": lambda m, th: m.residual(th),
    "misfit": lambda m, th: m.misfit(th),
    "loss": lambda m, th: m.loss(th),
    "gradient": lambda m, th: m.gradient(th),
    "gradient(r)": lambda m, th: m.gradient(th, np.ones(m.n)),
    "per_sample_gradient": lambda m, th: m.per_sample_gradient(th, 0),
    "per_sample_gradient(r)": lambda m, th: m.per_sample_gradient(th, 0, np.ones(m.n)),
    "jacobian": lambda m, th: m.jacobian(th),
}


@pytest.mark.parametrize("call", sorted(PUBLIC_THETA_CALLS))
def test_public_methods_reject_bad_theta(family, call):
    # theta is checked once, where a call enters the family; every entry point must reach it.
    model, theta = model_zoo(0)[family]
    PUBLIC_THETA_CALLS[call](model, theta)
    for bad in (np.inf, -np.inf, np.nan):
        broken = theta.copy()
        broken[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PUBLIC_THETA_CALLS[call](model, broken)
    for wrong in (theta[:-1], np.append(theta, 0.0), theta[None, :]):
        with pytest.raises(ValueError, match="shape"):
            PUBLIC_THETA_CALLS[call](model, wrong)


def _bits(x):
    return np.float64(x).tobytes()


@given(st.integers(1, 500), st.sampled_from([1e-200, 1e-100, 1.0, 1e100, 1e200]), st.data())
def test_vector_norm_is_numpy_norm_bitwise(n, scale, data):
    elements = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
    v = data.draw(arrays(np.float64, n, elements=elements)) * scale
    with np.errstate(over="ignore"):  # squares of 1e200 overflow to inf, as in numpy's norm
        assert _bits(vector_norm(v)) == _bits(np.linalg.norm(v))
        # A strided view (here a column) may sum in another order, so the norm
        # is taken of a contiguous array; numpy's norm copies the view the same way.
        column = np.stack([v, -v, 2.0 * v], axis=1)[:, 1]
        assert _bits(vector_norm(np.ascontiguousarray(column))) == _bits(np.linalg.norm(column))
        assert _bits(vector_norm(v[::2].copy())) == _bits(np.linalg.norm(v[::2]))


def test_glm_identity_bit_identical_to_linear():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 10))
    y = rng.standard_normal(6)
    lin = LinearModel(X, y)
    glm = GLMModel(X, y, identity_activation())
    for seed in range(5):
        theta = np.random.default_rng(seed).standard_normal(10)
        r = X @ theta - y
        assert np.array_equal(lin.residual(theta), glm.residual(theta))
        assert np.array_equal(lin.jacobian(theta), glm.jacobian(theta))
        # The linear formulas themselves, bit for bit: every identity slope is 1.0.
        assert np.array_equal(lin.predictions(theta), X @ theta)
        assert np.array_equal(lin.residual(theta), r)
        assert np.array_equal(lin.jacobian(theta), X)
        assert np.array_equal(lin.pullback(theta, r), X.T @ r)
        assert np.array_equal(lin.gradient(theta), X.T @ r)
        assert np.array_equal(lin.gradient(theta, r), X.T @ r)
        for i in range(6):
            assert np.array_equal(lin.jacobian_row(theta, i), X[i])
            assert np.array_equal(lin.per_sample_gradient(theta, i), r[i] * X[i])
            assert np.array_equal(lin.per_sample_gradient(theta, i, r), r[i] * X[i])


def test_per_sample_gradient_checks_theta_once(family, monkeypatch):
    model, theta = model_zoo(0)[family]
    r = model.residual(theta)
    checks = []
    as_param = models._as_param

    def spy(*args):
        checks.append(args)
        return as_param(*args)

    monkeypatch.setattr(models, "_as_param", spy)
    model.per_sample_gradient(theta, 1, r)
    assert len(checks) == 1


def test_net_single_unit_matches_glm():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    act = tanh_linear(0.3)
    glm = GLMModel(X, y, act)
    net = ShallowNetModel(X, y, np.array([1.0]), act)
    for seed in range(5):
        theta = np.random.default_rng(seed).standard_normal(4)
        assert np.array_equal(net.residual(theta), glm.residual(theta))


def test_net_requires_unit_output_weights():
    with pytest.raises(ValueError):
        ShallowNetModel(np.eye(2), np.zeros(2), np.array([1.0, 1.0]), identity_activation())


def test_lowrank_predictions_match_naive_triple_loop():
    rng = np.random.default_rng(9)
    d, r, n = 3, 2, 4
    Xs = rng.standard_normal((n, d, d))
    model = LowRankModel(Xs, np.zeros(n), d, r)
    theta = rng.standard_normal(d * r)
    Theta = model.factor(theta)
    naive = np.zeros(n)
    for i in range(n):
        for a in range(r):
            for b in range(d):
                for c in range(d):
                    naive[i] += Theta[b, a] * Xs[i, b, c] * Theta[c, a]
    assert_allclose(model.predictions(theta), naive, rtol=1e-12)


def test_lowrank_column_major_layout():
    m = LowRankModel(np.zeros((1, 3, 3)), np.zeros(1), d=3, r=2)
    theta = np.arange(6.0)
    Theta = m.factor(theta)
    # column-major: first column is entries 0..2, second is 3..5
    assert_allclose(Theta[:, 0], [0.0, 1.0, 2.0])
    assert_allclose(Theta[:, 1], [3.0, 4.0, 5.0])
    assert_allclose(m.flatten_factor(Theta), theta)


def test_net_row_major_layout():
    m = ShallowNetModel(np.zeros((1, 3)), np.zeros(1), np.array([1.0]), identity_activation())
    # k=1 trivially row-major; check k=2 reshape convention directly
    W = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    flat = W.reshape(-1)
    assert_allclose(flat, [1, 2, 3, 4, 5, 6])


# ---------------------------------------------------------------------------
# Low-rank kernels split across the caller and one worker thread
# ---------------------------------------------------------------------------

def _lowrank_case(n, d, r, seed):
    rng = np.random.default_rng(seed)
    model = LowRankModel(rng.standard_normal((n, d, d)), rng.standard_normal(n), d, r)
    return model, rng.standard_normal(d * r), rng.standard_normal(n)


def _lowrank_serial(model, theta, res):
    """The unsplit kernels, written out: (predictions, pullback of res, gradient)."""
    Theta = theta.reshape((model.d, model.r), order="F")
    f = np.einsum("dr,idr->i", Theta, model.Xs @ Theta)

    def pull(v):
        M = np.einsum("i,iab->ab", v, model.Xs)
        return ((M + M.T) @ Theta).reshape(-1, order="F")

    return f, pull(res), pull(f - model.y)


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch):
    """The number of CPUs the split kernels see this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    return request.param


@pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
@pytest.mark.parametrize("d", [1, 2, 5, 12, 100])
def test_lowrank_split_kernels_are_the_serial_kernels_bit_for_bit(n, d, cpus):
    # n = 1 and d = 1 leave one half empty; n = 2 and 3 leave a half of one sample,
    # the case where einsum with a C-ordered factor (not the column-major one
    # ``factor`` returns) sums d r = 10,000 products in another order at d = r = 100.
    for r in sorted({1, (d + 1) // 2, d}):
        model, theta, res = _lowrank_case(n, d, r, seed=1000 * n + 10 * d + r)
        f, pull, grad = _lowrank_serial(model, theta, res)
        assert np.array_equal(model.predictions(theta), f)
        assert np.array_equal(model.residual(theta), f - model.y)
        assert np.array_equal(model.pullback(theta, res), pull)
        assert np.array_equal(model.gradient(theta), grad)
        assert np.array_equal(model.gradient(theta, f - model.y), grad)


def test_lowrank_split_hands_the_second_half_to_one_worker(cpus):
    first, second = set(), set()
    for h in (0, 2, 4):  # the halves' lengths, h and 5 - h, tell them apart
        threads = {}

        def half(A):
            threads[len(A)] = threading.get_ident()
            return 2.0 * A

        assert np.array_equal(models._split(half, np.arange(5.0), h), 2.0 * np.arange(5.0))
        first.add(threads[h])
        second.add(threads[5 - h])
    assert first == {threading.get_ident()}
    assert len(second) == 1  # one worker took every second half
    assert (second == first) == (cpus == 1)


def _bounded(body, seconds=60.0):
    """body() on a daemon thread, so that a reply that never comes fails the test
    instead of hanging it; body's exception is raised here."""
    outcome = []

    def run():
        try:
            body()
            outcome.append(None)
        except BaseException as exc:  # raised again on the test's thread
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"no result within {seconds:g} s"
    if outcome[0] is not None:
        raise outcome[0]


def test_lowrank_split_raises_the_worker_half_exception_and_the_worker_survives(cpus):
    def half(A):
        if A[0] >= 2.0:
            raise KeyError("second half")
        return A

    def body():
        for _ in range(2):
            with pytest.raises(KeyError, match="second half"):
                models._split(half, np.arange(5.0), 2)
            assert np.array_equal(models._split(lambda A: -A, np.arange(5.0), 2), -np.arange(5.0))

    _bounded(body)


def test_lowrank_split_wrong_length_residual_raises_as_serial(cpus):
    model, theta, res = _lowrank_case(7, 12, 3, seed=1)
    f, pull, grad = _lowrank_serial(model, theta, res)

    def body():
        for wrong in (res[:-1], np.append(res, 1.0)):
            with pytest.raises(ValueError):
                np.einsum("i,iab->ab", wrong, model.Xs)
            with pytest.raises(ValueError):
                model.pullback(theta, wrong)
            assert np.array_equal(model.pullback(theta, res), pull)
            assert np.array_equal(model.predictions(theta), f)
            assert np.array_equal(model.gradient(theta), grad)

    _bounded(body)


def test_lowrank_split_concurrent_callers_each_get_their_own_bits(cpus):
    # More callers than cores, switching threads often, each on its own model.
    cases = [_lowrank_case(25, 12, 3, seed=seed) for seed in range(2, 6)]
    expected = [_lowrank_serial(*case) for case in cases]
    results = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def call(k):
        model, theta, res = cases[k]
        start.wait()
        for _ in range(30):
            results[k].append((model.predictions(theta), model.pullback(theta, res),
                               model.gradient(theta)))

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(cases)):
        assert len(results[k]) == 30
        for got in results[k]:
            assert all(np.array_equal(a, b) for a, b in zip(got, expected[k]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is not available")
def test_lowrank_split_runs_in_a_forked_child(monkeypatch):
    # The parent's worker is running when it forks; the child has no such thread
    # and must start its own rather than wait on the parent's queue.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    model, theta, _ = _lowrank_case(25, 12, 3, seed=4)
    expected = model.predictions(theta)
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # a fork of a threaded process
        pid = os.fork()
    if pid == 0:
        try:
            os.write(write, model.predictions(theta).tobytes())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60.0)
        got = os.read(read, expected.nbytes + 1) if ready else b""
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert ready, "the forked child did not compute predictions within 60 s"
    assert got == expected.tobytes()


def test_lowrank_split_keeps_no_reference_to_a_dropped_model(cpus):
    model, theta, res = _lowrank_case(25, 12, 3, seed=5)
    model.predictions(theta)
    model.pullback(theta, res)
    model.gradient(theta)
    features = weakref.ref(model.Xs)
    del model
    gc.collect()
    assert features() is None
