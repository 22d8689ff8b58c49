"""Empirical certification of local Jacobian geometry over a parameter ball.

The spectrum numbers produced here are probed, not proved: every report is
labeled "empirical over N probes" and never asserts anything beyond the
sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

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


def gram_brackets(G: Array, scale: float, p: int) -> tuple[Array, Array, Array]:
    """Brackets (lower, upper, row_upper) on dense values from the n x n Gram
    G = (F F^T) * K (``Model.gram_factors``) of an n x p Jacobian or difference.

    With lam = eigvalsh(G) ascending, the singular values ``np.linalg.svd``
    returns, ascending, lie in [lower[i], upper[i]] for i >= n - min(n, p);
    ``spectral_norm`` of a difference is at most upper[-1]; row r of
    ``np.linalg.norm(J, axis=1)`` is at most row_upper[r]. With u = eps / 2,
    T = trace(G) and Lam = max(lam[-1], 0):

        lower, upper = sqrt(max(lam -/+ a, 0)) -/+ b,  row_upper = sqrt(diag(G) + a) + b,
        a = ((p + 4) T + 3 n^2 Lam) u,  b = (2 n p + 16) u sqrt(scale),

    scale being T for a Jacobian and T + T_a + T_b (adding the two points'
    Gram traces) for a difference. Let J* have the exact rows F_r (x) x_r:
    - forming G (inner products of lengths adding up to at most p + 1, the
      entrywise product) moves entry (r, s) by at most
      (p + 3) u ||J*_r|| ||J*_s||, a rank-one bound of norm <= (p + 4) u T;
    - a backward-stable eigvalsh errs by below 2 n^2 u ||G|| (the model of
      ``models._rounding_allowance``), so by Weyl each lam_i lies within a of
      sigma_i(J*)^2;
    - ``jacobian`` rounds J* once per entry, ||J - J*|| <= u ||J*||_F; for a
      difference, fl(J_a - J_b) is within 3.01 u (|F_a| + |F_b|) |x| of J*
      per entry, 5 u sqrt(T_a + T_b) in norm;
    - the dense solver is backward stable: ``svd`` within 2 n p u ||J||,
      ``spectral_norm`` within a relative (1.5 n p + 2) u, a row norm within
      a relative (p + 3) u / 2, and ||J|| <= (1 + (p + 4) u) sqrt(T);
    b covers these and the brackets' own roundings, for (n + p)^2 u far below
    1 (any model under DENSE_SVD_ENTRY_CAP). b is slack beyond the derived
    error, so an upper bracket exceeds a positive dense value strictly.
    """
    n = G.shape[0]
    u = np.finfo(float).eps / 2.0
    lam = np.linalg.eigvalsh(G)
    a = ((p + 4) * np.trace(G) + 3 * n * n * max(lam[-1], 0.0)) * u
    b = (2 * n * p + 16) * u * np.sqrt(scale)
    return (np.sqrt(np.maximum(lam - a, 0.0)) - b, np.sqrt(np.maximum(lam + a, 0.0)) + b,
            np.sqrt(np.diag(G) + a) + b)


def _exact_max(upper: Array, evaluate: Callable[[int], float],
               best: float = 0.0) -> tuple[float, int | None]:
    """max(best, evaluate(i) over all i) and the lowest i attaining it above best.

    upper[i] >= evaluate(i), strictly where evaluate(i) > best can hold.
    Candidates are evaluated in decreasing order of upper until none left can
    beat the best so far, so value and index are a full loop's (strict `>`)
    bit for bit.
    """
    arg = None
    for i in np.argsort(-upper, kind="stable"):
        if upper[i] <= best:
            break
        value = evaluate(int(i))
        if value > best or (value == best and arg is not None and i < arg):
            best, arg = value, int(i)
    return best, arg


def _point_brackets(model: Model, points: Array) -> tuple[Array, Array, Array, Array]:
    """Brackets on each point's sigma_min, sigma_max and largest row norm
    (``gram_brackets``), and same[i], the first point with point i's factor bits.

    Equal factors give equal Jacobian bits (``Model.gram_factors``), so each
    distinct factor is bracketed, and evaluated, once (all linear points share one).
    """
    smallest = model.n - min(model.n, model.p)
    lowers, uppers, rows = np.empty(len(points)), np.empty(len(points)), np.empty(len(points))
    first: dict[int, int] = {}  # hash of the factor bits -> first point holding them
    same = np.arange(len(points))
    for i, pt in enumerate(points):
        (F,), K = model.gram_factors([pt])
        j = first.setdefault(hash(F.tobytes()), i)
        if j < i and np.array_equal(F, model.gram_factors([points[j]])[0][0]):
            same[i] = j
            continue
        G = (F @ F.T) * K
        lower, upper, row_upper = gram_brackets(G, np.trace(G), model.p)
        lowers[i], uppers[i], rows[i] = lower[smallest], upper[-1], row_upper.max()
    return lowers[same], uppers[same], rows[same], same


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

    alpha, beta and B are the dense SVD's extreme singular values and the
    largest row norm over the probed points, bit for bit, found by exact
    bound-ordered searches (``_exact_max``): one eigvalsh of each point's
    n x n Gram brackets all three (``gram_brackets``), and the dense SVD or
    row norms run only where a bracket can still set an extremum, once per
    distinct Gram factor and from one Jacobian build (``_point_brackets``). The
    Lipschitz estimate, max ||J(b) - J(a)|| / ||b - a|| over probed pairs (all
    pairs when affordable, else a deterministic subset anchored at the
    center), is searched the same way from `Model.deviation_bounds`, a visited
    pair's deviation being the `spectral_norm` of the difference the full loop
    takes (only the center's Jacobian is kept). Coincident points are skipped.
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
    m = len(points)

    lowers, uppers, rows, same = _point_brackets(model, points)
    center_jacobian = model.jacobian(points[0])

    def jacobian(i: int) -> Array:
        return center_jacobian if i == 0 else model.jacobian(points[i])

    row_maxes: dict[int, float] = {}  # kept from every build, so none is built twice

    def largest_row(i: int, J: Array | None = None) -> float:
        if i not in row_maxes:
            row_maxes[i] = float(np.max(np.linalg.norm(jacobian(i) if J is None else J, axis=1)))
        return row_maxes[i]

    @cache
    def svd(i: int) -> Array:
        J = jacobian(i)
        largest_row(i, J)
        return np.linalg.svd(J, compute_uv=False)

    neg_alpha, _ = _exact_max(-lowers, lambda i: -float(svd(same[i])[-1]), -np.inf)
    sigma_max, _ = _exact_max(uppers, lambda i: float(svd(same[i])[0]))
    row_bound, _ = _exact_max(rows, lambda i: largest_row(same[i]))

    if m * (m - 1) // 2 <= max_pairs:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    else:
        pairs = [(0, j) for j in range(1, m)]
        pairs += [(j, j + 1) for j in range(1, m - 1)]
    bound = model.deviation_bounds(points)
    gaps = [float(np.linalg.norm(points[i] - points[j])) for i, j in pairs]
    keys = np.array([bound[i, j] / gap if gap > 0.0 else -np.inf
                     for (i, j), gap in zip(pairs, gaps)])

    def ratio(k: int) -> float:
        i, j = pairs[k]
        return spectral_norm(jacobian(i) - model.jacobian(points[j])) / gaps[k]

    lipschitz, _ = _exact_max(keys, ratio)

    return SpectrumBounds(
        alpha=-neg_alpha,
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
    Each pair is bracketed by its n x n difference Gram (``gram_brackets``),
    or by 0 when its factors are equal, and the dense `spectral_norm` runs
    only on pairs that can set the largest
    deviation or ratio (``_exact_max``): both, and the worst pair, are the
    full dense loop's bit for bit. Results are empirical over the probed
    points only.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    check_capacity(model)
    points = probe_points(bounds.center, bounds.radius, samples, seed)
    factors, K = model.gram_factors(points)
    traces = [np.trace((F @ F.T) * K) for F in factors]
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    uppers = np.empty(len(pairs))
    for k, (i, j) in enumerate(pairs):
        D = factors[i] - factors[j]
        if not D.any():  # equal factors: the dense difference is exactly zero
            uppers[k] = 0.0
            continue
        G = (D @ D.T) * K
        uppers[k] = gram_brackets(G, np.trace(G) + traces[i] + traces[j], model.p)[1][-1]
    gaps = [float(np.linalg.norm(points[i] - points[j])) for i, j in pairs]

    @cache
    def deviation(k: int) -> float:
        i, j = pairs[k]
        return spectral_norm(model.jacobian(points[i]) - model.jacobian(points[j]))

    limit = (1.0 - lam) * bounds.alpha**2 / bounds.beta
    max_dev, worst = _exact_max(uppers, deviation)
    # Starting from L leaves max(L, max ratio) and the smooth verdict unchanged.
    ratio_uppers = np.array([upper / gap if gap > 0.0 else -np.inf
                             for upper, gap in zip(uppers, gaps)])
    estimate, _ = _exact_max(ratio_uppers, lambda k: deviation(k) / gaps[k], bounds.lipschitz_L)
    bounded_ok = max_dev <= limit
    if bounds.lipschitz_L == 0.0:
        smooth_ok = estimate <= 1e-10 * max(1.0, bounds.beta)
    else:
        smooth_ok = estimate <= bounds.lipschitz_L * 1.05
    return AssumptionReport(
        bounded_ok=bounded_ok,
        smooth_ok=smooth_ok,
        max_deviation=max_dev,
        bounded_limit=limit,
        lipschitz_estimate=estimate,
        worst_pair=None if worst is None else (points[pairs[worst][0]], points[pairs[worst][1]]),
        probe_count=len(points),
        note=f"empirical over {len(points)} probes (radius {bounds.radius:.6g}); "
        "no claim beyond the probed points",
    )
