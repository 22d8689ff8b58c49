"""Independent brute-force references for validating the main code paths."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .models import Model

Array = np.ndarray

ENUMERATION_CAP = 10_000


class CapacityError(RuntimeError):
    """A dense computation exceeds the configured desk-scale cap."""


def fd_jacobian(model: Model, theta: Array, h: float | None = None) -> Array:
    """Central-difference Jacobian, column by column."""
    theta = np.asarray(theta, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(theta))))
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    J = np.empty((model.n, model.p))
    for j in range(model.p):
        step = np.zeros(model.p)
        step[j] = h
        J[:, j] = (model.residual(theta + step) - model.residual(theta - step)) / (2.0 * h)
    return J


def fd_gradient(value: Callable[[Array], float], theta: Array, h: float | None = None) -> Array:
    """Central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(theta))))
    g = np.empty(theta.shape[0])
    for j in range(theta.shape[0]):
        step = np.zeros(theta.shape[0])
        step[j] = h
        g[j] = (value(theta + step) - value(theta - step)) / (2.0 * h)
    return g


def average_jacobian(model: Model, theta_a: Array, theta_b: Array, nodes: int = 16) -> Array:
    """Line-averaged Jacobian along the segment from theta_b to theta_a.

    Satisfies f(a) - f(b) = average_jacobian(model, a, b) @ (a - b) up to the
    error of a Gauss-Legendre rule with the given number of nodes. The rule is
    applied to the increments J(b + t (a - b)) - J(b), so a constant Jacobian
    comes back exactly.
    """
    a = np.asarray(theta_a, dtype=float)
    b = np.asarray(theta_b, dtype=float)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    ts = 0.5 * (xs + 1.0)
    base = model.jacobian(b)
    out = base.copy()
    for t, w in zip(ts, ws):
        out += 0.5 * w * (model.jacobian(b + t * (a - b)) - base)
    return out


def enumerate_sgd_expectation(
    model: Model, theta: Array, eta: float, g: Callable[[Array], float | Array]
) -> float | Array:
    """Exact expectation of g over one uniformly-indexed stochastic step.

    Returns (1/n) * sum_i g(theta - eta * G(theta; i)) by enumerating every
    index choice; replaces sampling wherever n is small enough.
    """
    if model.n > ENUMERATION_CAP:
        raise CapacityError(f"n={model.n} exceeds enumeration cap {ENUMERATION_CAP}")
    theta = np.asarray(theta, dtype=float)
    total = 0.0
    for i in range(model.n):
        total += g(theta - eta * model.per_sample_gradient(theta, i))
    return total / model.n


def pseudo_inverse_solution(X: Array, z: Array) -> Array:
    """Minimum-norm solution X^T (X X^T)^{-1} z of X theta = z (full row rank)."""
    X = np.asarray(X, dtype=float)
    z = np.asarray(z, dtype=float)
    gram = X @ X.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-12 or sv[0] == 0.0:
        raise np.linalg.LinAlgError("X X^T is singular; X must have full row rank")
    return X.T @ np.linalg.solve(gram, z)


def lowrank_init(d: int, r: int, n: int, y_norm: float, seed: int) -> Array:
    """Initial low-rank factor with singular values in the prescribed band.

    Returns the column-major flattening of U diag(s) V^T where U, V have
    orthonormal columns (QR of Gaussian) and every s_j is uniform in
    [sqrt(y_norm) / (r n)^{1/4}, 2 sqrt(y_norm) / (r n)^{1/4}]. The spectrum
    is re-verified by SVD before returning.
    """
    if r > d:
        raise ValueError(f"need r <= d, got r={r}, d={d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    lo = np.sqrt(y_norm) / (r * n) ** 0.25
    hi = 2.0 * lo
    U, _ = np.linalg.qr(rng.standard_normal((d, r)))
    V, _ = np.linalg.qr(rng.standard_normal((r, r)))
    s = rng.uniform(lo, hi, size=r)
    Theta = (U * s) @ V.T
    got = np.linalg.svd(Theta, compute_uv=False)
    if not (np.all(got >= lo * (1 - 1e-10)) and np.all(got <= hi * (1 + 1e-10))):
        raise AssertionError("constructed factor has singular values outside the band")
    return Theta.reshape(-1, order="F")
