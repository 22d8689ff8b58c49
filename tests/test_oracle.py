import numpy as np
import pytest
from numpy.testing import assert_allclose

from overparam.descent import sgd_index_stream
from overparam.models import GLMModel, LinearModel, LowRankModel, tanh_linear
from overparam.oracle import (
    CapacityError,
    enumerate_sgd_expectation,
    fd_jacobian,
    lowrank_init,
    pseudo_inverse_solution,
)


def test_fd_jacobian_linear():
    X = np.random.default_rng(0).standard_normal((3, 4))
    m = LinearModel(X, np.zeros(3))
    assert_allclose(fd_jacobian(m, np.zeros(4), h=1e-6), X, atol=1e-9)


def test_fd_jacobian_glm_at_zero():
    m = GLMModel(np.eye(1), np.zeros(1), tanh_linear(0.3))
    J = fd_jacobian(m, np.zeros(1), h=1e-6)
    assert abs(J[0, 0] - 1.3) <= 1e-7 * 1.3


def test_fd_jacobian_lowrank_seed7():
    rng = np.random.default_rng(7)
    d, r, n = 3, 2, 4
    m = LowRankModel(rng.standard_normal((n, d, d)), np.zeros(n), d, r)
    theta = rng.standard_normal(d * r)
    J = m.jacobian(theta)
    J_fd = fd_jacobian(m, theta)
    assert np.linalg.norm(J - J_fd) <= 1e-5 * (1 + np.linalg.norm(J))


def test_fd_jacobian_rejects_bad_step():
    m = LinearModel(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        fd_jacobian(m, np.zeros(2), h=0.0)


def test_enumerate_constant_function():
    m = LinearModel(np.eye(2), np.zeros(2))
    val = enumerate_sgd_expectation(m, np.ones(2), 0.5, lambda th: 3.25)
    assert val == 3.25


def test_enumerate_squared_misfit_two_term():
    m = LinearModel(np.eye(2), np.zeros(2))
    val = enumerate_sgd_expectation(
        m, np.array([1.0, 1.0]), 0.5, lambda th: float(th @ th)
    )
    assert val == pytest.approx(1.25)


def test_enumerate_matches_monte_carlo():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 6))
    y = rng.standard_normal(4)
    m = LinearModel(X, y)
    theta = rng.standard_normal(6)
    eta = 0.01

    def g(th):
        r = m.residual(th)
        return float(r @ r)

    exact = enumerate_sgd_expectation(m, theta, eta, g)
    draws = 100_000
    idx = sgd_index_stream(seed=11, n=m.n, length=draws)
    samples = np.empty(draws)
    successors = [theta - eta * m.per_sample_gradient(theta, i) for i in range(m.n)]
    values = np.array([g(s) for s in successors])
    samples = values[idx]
    se = samples.std(ddof=1) / np.sqrt(draws)
    assert abs(samples.mean() - exact) <= 3 * se + 1e-12


def test_index_stream_uniform_frequencies():
    n, draws = 5, 100_000
    idx = sgd_index_stream(seed=42, n=n, length=draws)
    counts = np.bincount(idx, minlength=n)
    p = 1.0 / n
    se = np.sqrt(p * (1 - p) * draws)
    assert np.all(np.abs(counts - draws * p) <= 3 * se)


def test_enumeration_cap():
    m = LinearModel(np.ones((10_001, 1)), np.zeros(10_001))
    with pytest.raises(CapacityError):
        enumerate_sgd_expectation(m, np.zeros(1), 0.1, lambda th: 0.0)


def test_pseudo_inverse_identity():
    z = np.array([1.0, -2.0])
    assert_allclose(pseudo_inverse_solution(np.eye(2), z), z)


def test_pseudo_inverse_wide_row():
    out = pseudo_inverse_solution(np.array([[1.0, 0.0]]), np.array([2.0]))
    assert_allclose(out, [2.0, 0.0])


@pytest.mark.parametrize("seed", range(5))
def test_pseudo_inverse_solves_system(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, 7))
    z = rng.standard_normal(3)
    theta = pseudo_inverse_solution(X, z)
    assert np.linalg.norm(X @ theta - z) <= 1e-10 * (1 + np.linalg.norm(z))


def test_pseudo_inverse_rejects_rank_deficient():
    X = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        pseudo_inverse_solution(X, np.ones(2))


def test_lowrank_init_interval_r4_n100():
    y_norm = 10.0  # 100 Rademacher labels
    theta = lowrank_init(d=25, r=4, n=100, y_norm=y_norm, seed=0)
    Theta = theta.reshape((25, 4), order="F")
    s = np.linalg.svd(Theta, compute_uv=False)
    lo, hi = 0.7071, 1.4143
    assert np.all(s >= lo - 1e-4) and np.all(s <= hi + 1e-4)


def test_lowrank_init_scalar_case():
    theta = lowrank_init(d=1, r=1, n=1, y_norm=1.0, seed=3)
    assert theta.shape == (1,)
    assert 1.0 - 1e-12 <= abs(theta[0]) <= 2.0 + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_lowrank_init_spectrum_always_inside_band(seed):
    d, r, n = 8, 3, 12
    y_norm = 4.2
    theta = lowrank_init(d, r, n, y_norm, seed=seed)
    s = np.linalg.svd(theta.reshape((d, r), order="F"), compute_uv=False)
    lo = np.sqrt(y_norm) / (r * n) ** 0.25
    assert np.all(s >= lo * (1 - 1e-10)) and np.all(s <= 2 * lo * (1 + 1e-10))
