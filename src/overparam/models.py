"""Residual-map model families with exact analytic Jacobians.

Parameters are always flat float64 vectors of length ``p``. Matrix-shaped
parameters use a documented flattening: the low-rank factor is stored
column-major (columns concatenated), hidden-layer weight matrices row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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


def _rounding_allowance(n: int, p: int) -> float:
    """Relative rounding allowance rho of the pair deviation bounds (n x p Jacobians).

    With u = eps / 2, k = min(n, p) and l = max(n, p), ``geometry.spectral_norm``
    of fl(J_a - J_b) exceeds the exact ||J_a - J_b|| by at most a factor
    1 + k (l + k + 2) u: one rounding per entry of the difference, the Gram's
    inner products of length l in any summation order, a backward-stable
    eigensolver (error below 2 k^2 u ||G||) and the square root. rho covers
    that twice over, plus inner products of length n p in any order (the
    default bound's Gram) and the few roundings that form each bound.
    """
    k, l = sorted((n, p))
    return (n * p + 2 * k * (l + k + 2) + 16) * np.finfo(float).eps


class Model:
    """Residual map f: R^p -> R^n with labels y and exact Jacobian.

    Subclasses implement ``predictions`` and ``jacobian``; everything else
    derives from those. Families with a closed form override ``pullback``,
    through which ``gradient`` reaches J^T r, ``deviation_bounds`` and
    ``gram_factors``. ``predictions``, ``jacobian``, ``jacobian_row`` and
    ``pullback`` check theta (shape (p,), finite, else ValueError);
    ``residual``, ``per_sample_gradient`` and the rest rely on them. The only
    state a model gains after construction is a lazily cached, deterministic
    array (``LowRankModel.Xs_sym``, ``XXt``), which is safe to build twice;
    otherwise models are immutable and safe to share across workers, and all
    evaluations are pure functions of (model, theta).
    """

    n: int
    p: int
    y: Array

    def predictions(self, theta: Array) -> Array:
        raise NotImplementedError

    def jacobian(self, theta: Array) -> Array:
        raise NotImplementedError

    def residual(self, theta: Array) -> Array:
        """f(theta) - y, componentwise (``predictions`` validates theta)."""
        return self.predictions(theta) - self.y

    def residuals(self, thetas: Array) -> Array:
        """Residuals of a stack of parameters: (m, p) -> (m, n), row by row.

        Families with a closed form override this with one batched product.
        """
        thetas = _as_params(thetas, self.p)
        return np.array([self.residual(theta) for theta in thetas]).reshape(len(thetas), self.n)

    def misfit(self, theta: Array) -> float:
        """Euclidean norm of the residual."""
        return vector_norm(self.residual(theta))

    def loss(self, theta: Array) -> float:
        """0.5 * ||f(theta) - y||^2."""
        r = self.residual(theta)
        return 0.5 * float(r @ r)

    def pullback(self, theta: Array, r: Array) -> Array:
        """J(theta)^T r for a vector r of length n."""
        return self.jacobian(theta).T @ r

    def gradient(self, theta: Array, r: Array | None = None) -> Array:
        """J(theta)^T (f(theta) - y).

        r is the residual at theta when the caller has already measured it,
        as the descent loop has; it is computed here otherwise.
        """
        return self.pullback(theta, self.residual(theta) if r is None else r)

    def jacobian_row(self, theta: Array, i: int) -> Array:
        """Row i of the Jacobian; subclasses override with a cheap path."""
        return self.jacobian(theta)[i]

    def per_sample_gradient(self, theta: Array, i: int, r: Array | None = None) -> Array:
        """Gradient contribution of sample i: r_i(theta) * J_i(theta)^T.

        The average over all i equals gradient(theta)/n. r is the full
        residual at theta if already measured, as in ``gradient``.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        r_i = float((self.residual(theta) if r is None else r)[i])
        return r_i * self.jacobian_row(theta, i)

    def deviation_bounds(self, points: Sequence[Array]) -> Array:
        """Upper bounds on the Jacobian deviation of every pair of points, (m, m).

        Entry (i, j) is no smaller than what ``geometry.spectral_norm`` returns
        for jacobian(points[i]) - jacobian(points[j]), rounding included. The
        default is the Frobenius norm of the difference from the Gram G of the
        flattened Jacobians, sqrt(g_i + g_j - 2 G_ij), with 2 rho (g_i + g_j)
        added under the root for the cancellation (rho from
        ``_rounding_allowance``). G = F F^T holds all m flattened Jacobians in
        one (m, n p) array F; closed-form families override it and build none.
        """
        F = np.empty((len(points), self.n * self.p))
        for row, pt in zip(F, points):
            row[:] = self.jacobian(pt).ravel()
        G = F @ F.T
        g = np.diag(G)
        total = g[:, None] + g[None, :]
        slack = 2.0 * _rounding_allowance(self.n, self.p) * total
        return np.sqrt(np.maximum(total - 2.0 * G, 0.0) + slack)

    def gram_factors(self, points: Sequence[Array]) -> tuple[Array, Array | float]:
        """Factors (F, K) of the Jacobian Grams at `points`; F has shape (m, n, k).

        J(points[i]) J(points[i])^T = (F_i F_i^T) * K and the Gram of
        J(points[i]) - J(points[j]) is (D D^T) * K with D = F_i - F_j, where
        ``*`` is the entrywise product. Row r of ``jacobian`` is F_ir (x) x_r
        rounded once per entry, with K = X X^T; the inner products of F F^T and
        of K have lengths adding up to at most p + 1, which the allowance of
        ``geometry.gram_brackets`` relies on. The default takes F_i = J(points[i])
        and K = 1.0; closed-form families use their slopes and a cached X X^T.
        """
        return np.array([self.jacobian(pt) for pt in points]), 1.0


class _SlopeModel(Model):
    """A family whose Jacobian row r is slopes[r] (x) x_r for an n x d design X:
    the GLM (one slope a row) and the shallow net (k, one per hidden unit)."""

    X: Array

    def _slopes(self, theta: Array) -> Array:
        raise NotImplementedError

    @cached_property
    def XXt(self) -> Array:
        """X X^T, built on first use (only Gram probes read it)."""
        return self.X @ self.X.T

    def gram_factors(self, points: Sequence[Array]) -> tuple[Array, Array]:
        """F_i = _slopes(theta_i) as (n, k): J J^T = (F F^T) * X X^T, for the
        net the Gram of Du et al. 2018."""
        slopes = np.array([self._slopes(pt) for pt in points])
        return slopes.reshape(len(points), self.n, -1), self.XXt


class GLMModel(_SlopeModel):
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

    def predictions(self, theta: Array) -> Array:
        return self.act.phi(self.X @ _as_param(theta, self.p))

    def residuals(self, thetas: Array) -> Array:
        return self.act.phi(_as_params(thetas, self.p) @ self.X.T) - self.y

    def _slopes(self, theta: Array) -> Array:
        """dphi(X theta): row r of the Jacobian is slopes[r] * x_r."""
        return self.act.dphi(self.X @ _as_param(theta, self.p))

    def jacobian(self, theta: Array) -> Array:
        return self._slopes(theta)[:, None] * self.X

    def jacobian_row(self, theta: Array, i: int) -> Array:
        theta = _as_param(theta, self.p)
        return self.act.dphi(self.X[i] @ theta) * self.X[i]

    def pullback(self, theta: Array, r: Array) -> Array:
        return self.X.T @ (self._slopes(theta) * r)

    def deviation_bounds(self, points: Sequence[Array]) -> Array:
        """||J(a) - J(b)|| <= ||delta||_inf ||X|| with delta = dphi(X a) - dphi(X b).

        The slopes dphi(X a) are ``jacobian``'s own (``_slopes``), so the two
        Jacobians differ by diag(delta) X plus the rounding of their entries:
        at most u (|dphi(X a)_r| + |dphi(X b)_r|) |X_r| on each row r with
        delta_r != 0 (rows with equal slopes cancel exactly), which adds
        u max_r(...) ||X||_F. The result is inflated by 1 + rho
        (``_rounding_allowance``). Builds no Jacobian: one (m, n) slope matrix
        and one row of bounds at a time.
        """
        slopes = np.array([self._slopes(pt) for pt in points])
        spec = float(np.linalg.norm(self.X, 2))
        frob_u = 0.5 * np.finfo(float).eps * float(np.linalg.norm(self.X))
        out = np.empty((len(slopes), len(slopes)))
        for i, s in enumerate(slopes):
            delta = s - slopes
            sizes = np.where(delta != 0.0, np.abs(s) + np.abs(slopes), 0.0)
            out[i] = np.max(np.abs(delta), axis=1) * spec + np.max(sizes, axis=1) * frob_u
        return out * (1.0 + _rounding_allowance(self.n, self.p))


class LinearModel(GLMModel):
    """f(theta) = X theta: the GLM with phi = identity, so the Jacobian is X everywhere.

    Every slope is exactly 1.0, so each value matches the linear formula bit
    for bit and ``deviation_bounds`` comes out all zero.
    """

    def __init__(self, X: Array, y: Array):
        super().__init__(X, y, identity_activation())


class LowRankModel(Model):
    """Quadratic-form regression f_i = trace(Theta^T X_i Theta).

    The factor Theta in R^{d x r} is stored column-major in theta. The exact
    Jacobian row is vect((X_i + X_i^T) Theta)^T; with asymmetric feature
    matrices this differs from the symmetrized convention vect(X_i Theta)^T by
    up to a factor of two in the spectrum.
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

    def jacobian(self, theta: Array) -> Array:
        Theta = self.factor(theta)
        G = self.Xs_sym @ Theta  # (n, d, r)
        return G.transpose(0, 2, 1).reshape(self.n, self.p)

    def jacobian_row(self, theta: Array, i: int) -> Array:
        Theta = self.factor(theta)
        return self.flatten_factor(self.Xs_sym[i] @ Theta)

    def pullback(self, theta: Array, r: Array) -> Array:
        Theta = self.factor(theta)
        M = np.einsum("i,iab->ab", r, self.Xs)
        return self.flatten_factor((M + M.T) @ Theta)


class ShallowNetModel(_SlopeModel):
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

    def flatten_weights(self, W: Array) -> Array:
        return np.asarray(W, dtype=float).reshape(-1)

    def predictions(self, theta: Array) -> Array:
        Z = self.X @ self.weights(theta).T  # (n, k)
        return self.act.phi(Z) @ self.v

    def _slopes(self, theta: Array) -> Array:
        """v * dphi(X W^T), (n, k): block j of Jacobian row r is slopes[r, j] * x_r."""
        return self.act.dphi(self.X @ self.weights(theta).T) * self.v[None, :]

    def jacobian(self, theta: Array) -> Array:
        D = self._slopes(theta)
        return (D[:, :, None] * self.X[:, None, :]).reshape(self.n, self.p)

    def jacobian_row(self, theta: Array, i: int) -> Array:
        z = self.weights(theta) @ self.X[i]
        d = self.act.dphi(z) * self.v
        return (d[:, None] * self.X[i][None, :]).reshape(-1)

    def pullback(self, theta: Array, r: Array) -> Array:
        D = self._slopes(theta)
        return self.flatten_weights((D * r[:, None]).T @ self.X)
