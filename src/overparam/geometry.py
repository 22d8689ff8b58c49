"""Empirical certification of local Jacobian geometry over a parameter ball.

The spectrum numbers produced here are probed, not proved: every report is
labeled "empirical over N probes" and never asserts anything beyond the
sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import Model
from .oracle import CapacityError

Array = np.ndarray

DENSE_SVD_ENTRY_CAP = 4_000_000


class CertificationError(ValueError):
    """The probed geometry cannot support a convergence plan (alpha == 0)."""


@dataclass(frozen=True)
class SpectrumBounds:
    """Extremal singular values of the Jacobian over a probed ball.

    alpha and beta are the smallest and largest singular values seen at the
    probed points.
    """

    alpha: float
    beta: float
    row_bound_B: float
    lipschitz_L: float
    probe_count: int
    radius: float
    center: Array
    n_rows: int
    p_cols: int

    def __post_init__(self):
        if not (0.0 <= self.alpha <= self.beta and np.isfinite(self.beta)):
            raise ValueError(f"need 0 <= alpha <= beta finite, got {self.alpha}, {self.beta}")
        if self.row_bound_B > self.beta * (1.0 + 1e-12):
            raise ValueError("max row norm cannot exceed the spectral norm bound")


@dataclass(frozen=True)
class TheoryPlan:
    """Step size, working radius, and contraction rate for a descent run."""

    radius_R: float
    eta: float
    rate: float
    regime: str  # "bounded" | "smooth"
    lam: float
    nu: float | None = None
    fail_prob: float | None = None
    zeta: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must lie in [0, 1), got {self.rate}")
        if self.radius_R <= 0:
            raise ValueError(f"radius must be positive, got {self.radius_R}")


def sample_ball(center: Array, radius: float, samples: int, rng: np.random.Generator) -> Array:
    """Uniform points in the ball: Gaussian direction times radius * U^(1/p)."""
    p = center.shape[0]
    g = rng.standard_normal((samples, p))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(size=(samples, 1)) ** (1.0 / p)
    return center[None, :] + (g / norms) * radii


def probe_points(center: Array, radius: float, samples: int, seed: int) -> Array:
    """The center followed by `samples` uniform ball points drawn from `seed`."""
    center = np.asarray(center, dtype=float)
    ball = sample_ball(center, radius, samples, np.random.default_rng(seed))
    return np.vstack([center[None, :], ball])


def check_capacity(model: Model) -> None:
    """Refuse a model whose dense n x p Jacobian exceeds DENSE_SVD_ENTRY_CAP."""
    if model.n * model.p > DENSE_SVD_ENTRY_CAP:
        raise CapacityError(
            f"dense SVD of a {model.n} x {model.p} Jacobian exceeds the "
            f"{DENSE_SVD_ENTRY_CAP}-entry cap"
        )


def spectral_norm(A: Array) -> float:
    """Largest singular value of A from the top eigenvalue of its smaller Gram.

    The largest eigenvalue of a k x k PSD Gram has absolute error about
    k * eps * lambda_max, so ||A|| comes out accurate to a relative ~1e-15
    whatever the conditioning of A; squaring harms only the small singular
    values, and none is read here.
    """
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def probe_spectrum(
    model: Model,
    center: Array,
    radius: float,
    samples: int = 64,
    seed: int = 0,
    trajectory_points: Array | None = None,
    max_pairs: int = 4096,
) -> SpectrumBounds:
    """Probe the Jacobian spectrum at the center, in the ball, and along a path.

    Every probed point gets a full dense SVD, one Jacobian at a time. The
    Lipschitz estimate is the max of ||J(b) - J(a)|| / ||b - a|| over probed
    pairs (all pairs when that is affordable, otherwise a deterministic subset
    anchored at the center), found by an exact bound-ordered search:
    `Model.deviation_bounds` bounds every pair's deviation at once, pairs are
    visited in decreasing order of bound / gap, and the search stops at the
    first pair whose bound / gap is no larger than the best ratio so far, as no
    pair left can beat it. A visited pair's deviation is the `spectral_norm` of
    the same difference the full loop takes (`model.jacobian` is deterministic;
    only the center's Jacobian is kept), so the maximum is the full loop's bit
    for bit. Coincident points are skipped.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    check_capacity(model)
    center = np.asarray(center, dtype=float)
    points = probe_points(center, radius, samples, seed)
    if trajectory_points is not None:
        points = np.vstack([points, trajectory_points])

    sigma_min = np.inf
    sigma_max = 0.0
    row_bound = 0.0
    for idx, pt in enumerate(points):
        J = model.jacobian(pt)
        if idx == 0:
            center_jacobian = J
        sv = np.linalg.svd(J, compute_uv=False)
        sigma_min = min(sigma_min, float(sv[-1]))
        sigma_max = max(sigma_max, float(sv[0]))
        row_bound = max(row_bound, float(np.max(np.linalg.norm(J, axis=1))))
    del J

    m = len(points)
    if m * (m - 1) // 2 <= max_pairs:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    else:
        pairs = [(0, j) for j in range(1, m)]
        pairs += [(j, j + 1) for j in range(1, m - 1)]
    bound = model.deviation_bounds(points)
    gaps = [float(np.linalg.norm(points[i] - points[j])) for i, j in pairs]
    keys = np.array([bound[i, j] / gap if gap > 0.0 else -np.inf
                     for (i, j), gap in zip(pairs, gaps)])
    lipschitz = 0.0
    for k in np.argsort(-keys, kind="stable"):
        if keys[k] <= lipschitz:
            break
        i, j = pairs[k]
        J_i = center_jacobian if i == 0 else model.jacobian(points[i])
        lipschitz = max(lipschitz, spectral_norm(J_i - model.jacobian(points[j])) / gaps[k])

    return SpectrumBounds(
        alpha=sigma_min,
        beta=sigma_max,
        row_bound_B=min(row_bound, sigma_max),
        lipschitz_L=lipschitz,
        probe_count=m,
        radius=radius,
        center=center,
        n_rows=model.n,
        p_cols=model.p,
    )


def gd_plan(
    bounds: SpectrumBounds,
    initial_misfit: float,
    regime: str = "bounded",
    lam: float = 0.5,
    eta: float | None = None,
) -> TheoryPlan:
    """Full-batch plan: eta, working radius, and squared-misfit rate.

    bounded regime: eta = lam / beta^2.
    smooth regime:  eta = min(lam, 2(1-lam) alpha^2 / (L * misfit)) / beta^2.
    An explicitly requested eta is honored when it does not exceed the
    regime's cap (the certificate stays valid for any smaller step size).
    The radius is misfit / ((lam - eta beta^2 / 2) alpha), which reduces to
    4 * misfit / alpha at lam = 1/2 in the bounded regime; the squared-misfit
    contraction factor is 1 - alpha^2 * lam * eta.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    if bounds.alpha <= 0.0:
        raise CertificationError("probed alpha is zero; cannot certify a plan")
    alpha, beta = bounds.alpha, bounds.beta
    if regime == "bounded":
        eta_cap = lam / beta**2
    elif regime == "smooth":
        dev = bounds.lipschitz_L * initial_misfit
        cap = np.inf if dev == 0.0 else 2.0 * (1.0 - lam) * alpha**2 / dev
        eta_cap = min(lam, cap) / beta**2
    else:
        raise ValueError(f"unknown regime {regime!r}")
    eta = eta_cap if eta is None or eta > eta_cap else eta
    zeta = (lam - eta * beta**2 / 2.0) * alpha
    radius = initial_misfit / zeta if initial_misfit > 0 else np.inf
    return TheoryPlan(
        radius_R=radius,
        eta=eta,
        rate=1.0 - alpha**2 * lam * eta,
        regime=regime,
        lam=lam,
        zeta=zeta,
    )


def sgd_plan(
    bounds: SpectrumBounds,
    initial_misfit: float,
    nu: float = 8.0,
    regime: str = "bounded",
    eta: float | None = None,
) -> TheoryPlan:
    """Single-sample plan: eta, nu-ball radius, per-step expected-square rate.

    bounded regime: eta = alpha^2 / (nu beta^2 B^2).
    smooth regime:  eta = alpha^2 / (nu beta^2 B^2 + nu beta B L * misfit).
    An explicitly requested eta is honored when it does not exceed the cap.
    The reported failure probability is (4/nu) * (beta/alpha)^(1/p).
    """
    if nu < 3.0:
        raise ValueError(f"nu must be >= 3, got {nu}")
    if bounds.alpha <= 0.0:
        raise CertificationError("probed alpha is zero; cannot certify a plan")
    alpha, beta, B = bounds.alpha, bounds.beta, bounds.row_bound_B
    if regime == "bounded":
        eta_cap = alpha**2 / (nu * beta**2 * B**2)
    elif regime == "smooth":
        eta_cap = alpha**2 / (
            nu * beta**2 * B**2 + nu * beta * B * bounds.lipschitz_L * initial_misfit
        )
    else:
        raise ValueError(f"unknown regime {regime!r}")
    eta = eta_cap if eta is None or eta > eta_cap else eta
    n = bounds.n_rows
    return TheoryPlan(
        radius_R=nu * initial_misfit / alpha if initial_misfit > 0 else np.inf,
        eta=eta,
        rate=1.0 - eta * alpha**2 / (2.0 * n),
        regime=regime,
        lam=0.5,
        nu=nu,
        fail_prob=(4.0 / nu) * (beta / alpha) ** (1.0 / bounds.p_cols),
        zeta=alpha / 4.0,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Empirical verdict on the deviation assumptions over probed pairs."""

    bounded_ok: bool
    smooth_ok: bool
    max_deviation: float
    bounded_limit: float
    lipschitz_estimate: float
    worst_pair: tuple[Array, Array] | None
    probe_count: int
    note: str = field(default="")

    def to_text(self) -> str:
        lines = [
            f"bounded-deviation: {'pass' if self.bounded_ok else 'FAIL'} "
            f"(max deviation {self.max_deviation:.6g} vs limit {self.bounded_limit:.6g})",
            f"smooth-deviation:  {'pass' if self.smooth_ok else 'FAIL'} "
            f"(Lipschitz estimate {self.lipschitz_estimate:.6g})",
            self.note,
        ]
        return "\n".join(lines)


def verify_assumptions(
    model: Model,
    bounds: SpectrumBounds,
    lam: float = 0.5,
    samples: int = 32,
    seed: int = 1,
) -> AssumptionReport:
    """Check the deviation assumptions over freshly sampled pairs in the ball.

    bounded: every pairwise deviation ||J(b) - J(a)|| must stay within
    (1 - lam) alpha^2 / beta. smooth: deviations must stay within the
    recorded Lipschitz estimate times the pair distance (up to 5% slack).
    Results are empirical over the probed points only.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    check_capacity(model)
    points = probe_points(bounds.center, bounds.radius, samples, seed)
    jacobians = [model.jacobian(pt) for pt in points]

    limit = (1.0 - lam) * bounds.alpha**2 / bounds.beta
    max_dev = 0.0
    max_ratio = 0.0
    worst = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dev = spectral_norm(jacobians[i] - jacobians[j])
            if dev > max_dev:
                max_dev = dev
                worst = (points[i], points[j])
            gap = float(np.linalg.norm(points[i] - points[j]))
            if gap > 0.0:
                max_ratio = max(max_ratio, dev / gap)

    bounded_ok = max_dev <= limit
    if bounds.lipschitz_L == 0.0:
        smooth_ok = max_ratio <= 1e-10 * max(1.0, bounds.beta)
    else:
        smooth_ok = max_ratio <= bounds.lipschitz_L * 1.05
    return AssumptionReport(
        bounded_ok=bounded_ok,
        smooth_ok=smooth_ok,
        max_deviation=max_dev,
        bounded_limit=limit,
        lipschitz_estimate=max(bounds.lipschitz_L, max_ratio),
        worst_pair=worst,
        probe_count=len(points),
        note=f"empirical over {len(points)} probes (radius {bounds.radius:.6g}); "
        "no claim beyond the probed points",
    )
