"""Residual-map model families with exact analytic Jacobians.

Parameters are always flat float64 vectors of length ``p``. Matrix-shaped
parameters use a documented flattening: the low-rank factor is stored
column-major (columns concatenated), hidden-layer weight matrices row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

Array = np.ndarray


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Activation:
    """Scalar nonlinearity with certified derivative bounds.

    ``gamma <= dphi(z) <= big_gamma`` and ``|ddphi(z)| <= curvature_m`` must
    hold everywhere; the bounds are stored per instance and may be loose.
    """

    name: str
    phi: Callable[[Array], Array]
    dphi: Callable[[Array], Array]
    ddphi: Callable[[Array], Array]
    gamma: float
    big_gamma: float
    curvature_m: float


def identity_activation() -> Activation:
    return Activation(
        name="identity",
        phi=lambda z: z,
        dphi=lambda z: np.ones_like(z),
        ddphi=lambda z: np.zeros_like(z),
        gamma=1.0,
        big_gamma=1.0,
        curvature_m=0.0,
    )


def tanh_linear(c: float) -> Activation:
    """phi(z) = z + c*tanh(z) for 0 <= c < 1.

    Certified bounds: gamma = 1-c, big_gamma = 1+c, curvature_m = 0.8*c
    (the true max of |phi''| is c*4/(3*sqrt(3)) ~= 0.77*c; 0.8*c rounds up).
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"tanh_linear needs 0 <= c < 1, got {c}")
    return Activation(
        name=f"tanh_linear({c:g})",
        phi=lambda z: z + c * np.tanh(z),
        dphi=lambda z: 1.0 + c * (1.0 - np.tanh(z) ** 2),
        ddphi=lambda z: -2.0 * c * np.tanh(z) * (1.0 - np.tanh(z) ** 2),
        gamma=1.0 - c,
        big_gamma=1.0 + c,
        curvature_m=0.8 * c,
    )


def softplus_linear(c: float) -> Activation:
    """phi(z) = (1-c)*log(1+exp(z)) + c*z, a softplus with a linear floor.

    Certified bounds: gamma = c, big_gamma = 1, curvature_m = (1-c)/4.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"softplus_linear needs 0 < c <= 1, got {c}")

    def _sigmoid(z: Array) -> Array:
        out = np.empty_like(z, dtype=float)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    return Activation(
        name=f"softplus_linear({c:g})",
        phi=lambda z: (1.0 - c) * np.logaddexp(0.0, z) + c * z,
        dphi=lambda z: (1.0 - c) * _sigmoid(np.asarray(z, dtype=float)) + c,
        ddphi=lambda z: (1.0 - c)
        * _sigmoid(np.asarray(z, dtype=float))
        * (1.0 - _sigmoid(np.asarray(z, dtype=float))),
        gamma=c,
        big_gamma=1.0,
        curvature_m=(1.0 - c) / 4.0,
    )


ACTIVATIONS: dict[str, Callable[..., Activation]] = {
    "identity": lambda c=0.0: identity_activation(),
    "tanh_linear": tanh_linear,
    "softplus_linear": softplus_linear,
}


# ---------------------------------------------------------------------------
# Model interface
# ---------------------------------------------------------------------------

def _as_param(theta: Array, p: int) -> Array:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (p,):
        raise ValueError(f"parameter vector has shape {theta.shape}, expected ({p},)")
    if not np.isfinite(theta).all():
        raise ValueError("parameter vector contains non-finite entries")
    return theta


def _as_params(thetas: Array, p: int) -> Array:
    """Stack-of-parameters counterpart of _as_param: shape (m, p), all finite."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != p:
        raise ValueError(f"parameter stack has shape {thetas.shape}, expected (m, {p})")
    if not np.isfinite(thetas).all():
        raise ValueError("parameter vector contains non-finite entries")
    return thetas


def vector_norm(v: Array) -> float:
    """np.linalg.norm(v) bit for bit, for a contiguous 1-D float array v only: numpy
    takes sqrt(v.dot(v)) of a contiguous copy, and a strided dot may sum in another order."""
    return math.sqrt(v @ v)


def kron_rows(F: Array, X: Array) -> Array:
    """The n x (k q) matrix whose row r is F_r (x) x_r, one rounded product an entry."""
    return (F[:, :, None] * X[:, None, :]).reshape(len(F), -1)


class Model:
    """Residual map f: R^p -> R^n with labels y and exact Jacobian.

    Subclasses implement ``predictions`` and ``factors``; everything else
    derives from those: ``jacobian``, ``jacobian_row`` (the factors of one
    sample, which ``per_sample_gradient`` reads) and ``pullback`` (through which
    ``gradient`` reaches J^T r). ``LowRankModel`` alone overrides ``pullback``,
    because its factor is the dense Jacobian.
    ``predictions``, ``factors`` and ``pullback`` check theta (shape (p,),
    finite, else ValueError); ``residual``, ``jacobian_row``,
    ``per_sample_gradient`` and the rest rely on them. Models are immutable
    but for the lazily cached, deterministic ``LowRankModel.Xs_sym`` (safe to
    build twice), so they are safe to share across threads; all evaluations
    are pure functions of (model, theta).
    """

    n: int
    p: int
    y: Array

    def predictions(self, theta: Array) -> Array:
        raise NotImplementedError

    def factors(self, theta: Array, rows: slice = slice(None)) -> tuple[Array, Array]:
        """(F, X) for the m samples of ``rows``: F of shape (m, k) and X of shape (m, q),
        k q = p, such that the Jacobian row of the r-th is F_r (x) x_r (``kron_rows``). X
        does not depend on theta. A family written outside this package must accept rows."""
        raise NotImplementedError

    def jacobian(self, theta: Array) -> Array:
        """J(theta), n x p, from ``factors``."""
        return kron_rows(*self.factors(theta))

    def residual(self, theta: Array) -> Array:
        """f(theta) - y, componentwise (``predictions`` validates theta)."""
        return self.predictions(theta) - self.y

    def misfit(self, theta: Array) -> float:
        """Euclidean norm of the residual."""
        return vector_norm(self.residual(theta))

    def loss(self, theta: Array) -> float:
        """0.5 * ||f(theta) - y||^2."""
        r = self.residual(theta)
        return 0.5 * float(r @ r)

    def pullback(self, theta: Array, r: Array) -> Array:
        """J(theta)^T r for a vector r of length n, from ``factors`` without forming J:
        row i of J is F_i (x) x_i, so J^T r is (F * r[:, None])^T X flattened row by row."""
        F, X = self.factors(theta)
        return ((F * r[:, None]).T @ X).reshape(-1)

    def gradient(self, theta: Array, r: Array | None = None) -> Array:
        """J(theta)^T (f(theta) - y).

        r is the residual at theta when the caller has already measured it,
        as the descent loop has; it is computed here otherwise.
        """
        return self.pullback(theta, self.residual(theta) if r is None else r)

    def jacobian_row(self, theta: Array, i: int) -> Array:
        """Row i of the Jacobian, from the factors of sample i alone."""
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        return kron_rows(*self.factors(theta, slice(i, i + 1)))[0]

    def per_sample_gradient(self, theta: Array, i: int, r: Array | None = None) -> Array:
        """Gradient contribution of sample i: r_i(theta) * J_i(theta)^T.

        The average over all i equals gradient(theta)/n. r is the full
        residual at theta if already measured, as in ``gradient``.
        """
        return self.jacobian_row(theta, i) * float((self.residual(theta) if r is None else r)[i])


class GLMModel(Model):
    """f(theta) = phi(X theta) entrywise, for a strictly increasing phi."""

    def __init__(self, X: Array, y: Array, act: Activation):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be n x p with y of length n")
        self.X = X
        self.y = y
        self.act = act
        self.n, self.p = X.shape

    def pre_activations(self, theta: Array) -> Array:
        """z = X theta, the argument of phi (checks theta)."""
        return self.X @ _as_param(theta, self.p)

    def predictions(self, theta: Array) -> Array:
        return self.act.phi(self.pre_activations(theta))

    def factors(self, theta: Array, rows: slice = slice(None)) -> tuple[Array, Array]:
        """(dphi(X theta) as a column, X): row r of the Jacobian is dphi(x_r . theta) x_r."""
        return self.act.dphi(self.X[rows] @ _as_param(theta, self.p))[:, None], self.X[rows]


class LinearModel(GLMModel):
    """f(theta) = X theta: the GLM with phi = identity, so the Jacobian is X everywhere.

    Every slope is exactly 1.0, so each value matches the linear formula bit
    for bit and every point has the same ``factors``.
    """

    def __init__(self, X: Array, y: Array):
        super().__init__(X, y, identity_activation())


class LowRankModel(Model):
    """Quadratic-form regression f_i = trace(Theta^T X_i Theta).

    The factor Theta in R^{d x r} is stored column-major in theta. The exact
    Jacobian row is vect((X_i + X_i^T) Theta)^T; with asymmetric feature
    matrices this differs from the symmetrized convention vect(X_i Theta)^T by
    up to a factor of two in the spectrum. ``Xs`` may be a view: the low-rank study
    gives each of its sizes a prefix of one shared draw.
    """

    def __init__(self, Xs: Array, y: Array, d: int, r: int):
        Xs = np.asarray(Xs, dtype=float)
        y = np.asarray(y, dtype=float)
        if r > d:
            raise ValueError(f"need r <= d, got r={r}, d={d}")
        if Xs.shape != (y.shape[0], d, d):
            raise ValueError("Xs must be n x d x d with y of length n")
        self.Xs = Xs
        self.y = y
        self.d = d
        self.r = r
        self.n = y.shape[0]
        self.p = d * r

    @cached_property
    def Xs_sym(self) -> Array:
        """X_i + X_i^T for every i, built on first use (only Jacobians read it)."""
        return self.Xs + np.transpose(self.Xs, (0, 2, 1))

    def factor(self, theta: Array) -> Array:
        """Reshape the flat parameter into the d x r factor (column-major)."""
        return _as_param(theta, self.p).reshape((self.d, self.r), order="F")

    def flatten_factor(self, Theta: Array) -> Array:
        return np.asarray(Theta, dtype=float).reshape(-1, order="F")

    def predictions(self, theta: Array) -> Array:
        Theta = self.factor(theta)
        return np.einsum("dr,idr->i", Theta, self.Xs @ Theta)

    def factors(self, theta: Array, rows: slice = slice(None)) -> tuple[Array, Array]:
        """(J, ones((n, 1))): no product structure, so the factor is the dense Jacobian."""
        G = self.Xs_sym[rows] @ self.factor(theta)  # (m, d, r)
        return G.transpose(0, 2, 1).reshape(len(G), self.p), np.ones((len(G), 1))

    def pullback(self, theta: Array, r: Array) -> Array:
        Theta = self.factor(theta)
        M = np.einsum("i,iab->ab", r, self.Xs)
        return self.flatten_factor((M + M.T) @ Theta)


class ShallowNetModel(Model):
    """One-hidden-layer net x -> v^T phi(W x) with fixed unit output weights.

    Only the k x d input-to-hidden matrix W is trained; theta stores W row by
    row (w_1^T then w_2^T ...). The Jacobian is the column-block concatenation
    [v_1 J(w_1) ... v_k J(w_k)] with J(w) = diag(phi'(X w)) X.
    """

    def __init__(self, X: Array, y: Array, v: Array, act: Activation):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be n x d with y of length n")
        if v.ndim != 1:
            raise ValueError("v must be a vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("output weights v must have unit Euclidean norm")
        self.X = X
        self.y = y
        self.v = v
        self.act = act
        self.n, self.d = X.shape
        self.k = v.shape[0]
        self.p = self.k * self.d

    def weights(self, theta: Array) -> Array:
        """Reshape the flat parameter into the k x d weight matrix."""
        return _as_param(theta, self.p).reshape((self.k, self.d))

    def predictions(self, theta: Array) -> Array:
        Z = self.X @ self.weights(theta).T  # (n, k)
        return self.act.phi(Z) @ self.v

    def factors(self, theta: Array, rows: slice = slice(None)) -> tuple[Array, Array]:
        """(v * dphi(X W^T), X): block j of Jacobian row r is D[r, j] x_r, so
        J J^T = (D D^T) * X X^T, the Gram of Du et al. 2018."""
        return self.act.dphi(self.X[rows] @ self.weights(theta).T) * self.v[None, :], self.X[rows]
