"""Anchored potential machinery for stochastic descent runs.

The stochastic loop is monitored through a potential that mixes the misfit
with the average distance to a fixed packing of anchor points around the
start; enumerating all index choices makes its one-step conditional drift
exactly computable at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .descent import Trajectory
from .geometry import TheoryPlan
from .models import Model
from .oracle import ENUMERATION_CAP, CapacityError

Array = np.ndarray

MISFIT_WEIGHT = 12.0
INIT_BOUND_FACTOR = 14.0


class PackingInfeasibleError(RuntimeError):
    """Rejection sampling could not place the requested number of anchors."""

    def __init__(self, requested: int, achieved: int, attempts: int):
        self.requested = requested
        self.achieved = achieved
        self.attempts = attempts
        super().__init__(
            f"placed {achieved}/{requested} anchors after {attempts} attempts"
        )


@dataclass(frozen=True)
class AnchorSet:
    """K anchor points in a ball, pairwise at least epsilon apart."""

    anchors: Array  # (K, p)
    epsilon: float
    radius_Rp: float
    center: Array
    K: int

    def __post_init__(self):
        if self.anchors.shape[0] != self.K:
            raise ValueError("anchor count does not match K")
        verify_packing(self.anchors, self.epsilon, self.center, self.radius_Rp)


def verify_packing(anchors: Array, epsilon: float, center: Array, radius: float) -> None:
    """Exhaustively re-check pairwise separation and ball membership.

    Row i is compared with all later rows at once, so memory stays O(K * p).
    """
    K = anchors.shape[0]
    for i in range(K):
        d_center = float(np.linalg.norm(anchors[i] - center))
        if d_center > radius * (1.0 + 1e-12):
            raise ValueError(f"anchor {i} lies outside the ball ({d_center} > {radius})")
        gaps = np.linalg.norm(anchors[i] - anchors[i + 1:], axis=1)
        close = np.flatnonzero(gaps < epsilon * (1.0 - 1e-12))
        if close.size:
            j = int(close[0])
            raise ValueError(
                f"anchors {i},{i + 1 + j} are {float(gaps[j])} apart, below epsilon={epsilon}"
            )


def default_anchor_count(n: int, beta: float, alpha: float) -> int:
    """K = ceil(sqrt(n) * beta / alpha), the threshold the drift bound needs."""
    return int(math.ceil(math.sqrt(n) * beta / alpha))


def save_packing(anchors: AnchorSet, path) -> None:
    """Flat text format: a `K epsilon radius p` header, then one anchor per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        p = anchors.center.shape[0]
        fh.write(f"{anchors.K} {anchors.epsilon:.17g} {anchors.radius_Rp:.17g} {p}\n")
        for row in anchors.anchors:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_packing(path) -> AnchorSet:
    """Inverse of save_packing; the first anchor is the ball center."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError("packing file must start with a 'K epsilon radius p' line")
        K, epsilon, radius, p = int(header[0]), float(header[1]), float(header[2]), int(header[3])
        rows = [np.array([float(v) for v in line.split()]) for line in fh if line.strip()]
    anchors = np.asarray(rows)
    if anchors.shape != (K, p):
        raise ValueError(f"expected {K} anchors of dimension {p}, got {anchors.shape}")
    return AnchorSet(anchors=anchors, epsilon=epsilon, radius_Rp=radius,
                     center=anchors[0].copy(), K=K)


def build_packing(
    center: Array,
    radius_Rp: float,
    epsilon: float,
    K: int,
    seed: int = 0,
    max_attempts: int | None = None,
) -> AnchorSet:
    """Rejection-sample K anchors in the ball, pairwise >= epsilon apart.

    The first anchor is the center itself; the rest are drawn uniformly in
    the ball and accepted when far enough from everything already placed.
    Deterministic under the seed. Raises PackingInfeasibleError (reporting
    the achieved count) when max_attempts draws are exhausted.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    center = np.asarray(center, dtype=float)
    if max_attempts is None:
        max_attempts = 100_000 * K
    rng = np.random.default_rng(seed)
    accepted = [center.copy()]
    attempts = 0
    batch = max(64, K)
    while len(accepted) < K and attempts < max_attempts:
        take = min(batch, max_attempts - attempts)
        candidates = geometry.sample_ball(center, radius_Rp, take, rng)
        attempts += take
        for cand in candidates:
            gaps = np.linalg.norm(np.asarray(accepted) - cand[None, :], axis=1)
            if np.all(gaps >= epsilon):
                accepted.append(cand)
                if len(accepted) == K:
                    break
    if len(accepted) < K:
        raise PackingInfeasibleError(K, len(accepted), attempts)
    return AnchorSet(
        anchors=np.asarray(accepted),
        epsilon=epsilon,
        radius_Rp=radius_Rp,
        center=center,
        K=K,
    )


def gd_potential(misfit: float, path_or_dist: float, zeta: float) -> float:
    """The descent potential misfit + zeta * (path length or distance)."""
    if misfit < 0 or path_or_dist < 0 or zeta < 0:
        raise ValueError("potential inputs must be nonnegative")
    return misfit + zeta * path_or_dist


@dataclass(frozen=True)
class PotentialValue:
    """Evaluation of both monitored potentials at one parameter point."""

    gd_value: float
    sgd_value: float
    components: tuple[float, float]  # (misfit term, anchor-distance term)
    init_bound: float | None = None
    init_bound_ok: bool | None = None

    def __post_init__(self):
        if self.gd_value < 0 or self.sgd_value < 0:
            raise ValueError("potential values must be nonnegative")


def anchor_distance(theta: Array, anchors: AnchorSet) -> float:
    """Average Euclidean distance from theta to the anchor points."""
    return float(np.mean(np.linalg.norm(anchors.anchors - theta[None, :], axis=1)))


def sgd_potential(
    model: Model,
    theta: Array,
    anchors: AnchorSet,
    alpha: float,
    beta: float | None = None,
) -> PotentialValue:
    """Evaluate 12*misfit + (alpha/K) * sum_l ||theta - p_l|| exactly.

    When theta equals the anchor center and beta is supplied, the start-value
    bound 14 * (beta/alpha)^(1/p) * misfit is checked alongside.
    """
    theta = np.asarray(theta, dtype=float)
    misfit = model.misfit(theta)
    dist_term = alpha * anchor_distance(theta, anchors)
    misfit_term = MISFIT_WEIGHT * misfit
    value = misfit_term + dist_term
    init_bound = None
    init_ok = None
    if beta is not None and np.array_equal(theta, anchors.center):
        p = theta.shape[0]
        init_bound = INIT_BOUND_FACTOR * (beta / alpha) ** (1.0 / p) * misfit
        init_ok = value <= init_bound
    gd_value = misfit + (alpha / 4.0) * float(np.linalg.norm(theta - anchors.center))
    return PotentialValue(
        gd_value=gd_value,
        sgd_value=value,
        components=(misfit_term, dist_term),
        init_bound=init_bound,
        init_bound_ok=init_ok,
    )


@dataclass(frozen=True)
class DriftResult:
    """Exact one-step conditional drifts under uniform index choice."""

    drift_misfit: float
    drift_dist: float
    drift_potential: float


def exact_conditional_drift(
    model: Model,
    theta: Array,
    eta: float,
    anchors: AnchorSet,
    alpha: float,
) -> DriftResult:
    """Enumerate all n successors and return exact expected drifts.

    Returns E[||r+|| ] - ||r||, E[d_P] - d_P, and the potential drift
    12 * (misfit drift) + alpha * (distance drift). The potential drift must
    be <= 0 at any state inside the half working ball when the planned step
    size is in use.

    All n successors theta - eta * G_i come from one Jacobian, since the
    per-sample gradient is G_i = r_i * J_i. Their residuals take one
    `model.residuals` call, and their squared anchor distances come from the
    expansion ||theta - a||^2 - 2 eta G_i . (theta - a) + eta^2 ||G_i||^2, one
    product of O(n * K) memory. Each such distance has a relative error of
    about p * eps * ((||theta - a|| + eta ||G_i||) / ||theta+ - a||)^2, where
    theta+ = theta - eta G_i: it is large only when one step lands far closer
    to an anchor than theta was. Drifts are averaged per successor against
    base values taken from the same residual and squared distances, so a
    successor equal to theta adds exactly 0 to the distance drift.
    Successor rows are walked in blocks of at most DENSE_SVD_ENTRY_CAP
    entries per array. `oracle.enumerate_sgd_expectation` is the
    one-successor-at-a-time reference.
    """
    if model.n > ENUMERATION_CAP:
        raise CapacityError(f"n={model.n} exceeds enumeration cap {ENUMERATION_CAP}")
    theta = np.asarray(theta, dtype=float)
    r = model.residual(theta)
    # Row i is per_sample_gradient(theta, i) only to rounding: jacobian_row takes
    # x_i . theta as a dot product, J's rows come from X theta, and last bits differ.
    grads = r[:, None] * model.jacobian(theta)
    offsets = theta[None, :] - anchors.anchors  # (K, p)
    base_sq = np.einsum("kp,kp->k", offsets, offsets)
    base_dist = np.sqrt(base_sq)
    base_misfit = np.linalg.norm(r)
    rows = max(1, geometry.DENSE_SVD_ENTRY_CAP // max(model.n, model.p, anchors.K))
    sum_misfit = sum_dist = 0.0
    for start in range(0, model.n, rows):
        block = grads[start:start + rows]
        misfits = np.linalg.norm(model.residuals(theta[None, :] - eta * block), axis=1)
        step_sq = eta * eta * np.einsum("ip,ip->i", block, block)
        dist_sq = base_sq - 2.0 * eta * (block @ offsets.T) + step_sq[:, None]
        sum_misfit += float(np.sum(misfits - base_misfit))
        sum_dist += float(np.sum(np.sqrt(np.maximum(dist_sq, 0.0)) - base_dist))
    d_misfit = sum_misfit / model.n
    d_dist = sum_dist / (model.n * anchors.K)
    return DriftResult(
        drift_misfit=d_misfit,
        drift_dist=d_dist,
        drift_potential=MISFIT_WEIGHT * d_misfit + alpha * d_dist,
    )


@dataclass(frozen=True)
class NeighborhoodReport:
    """First exit times from the half and full working neighborhoods."""

    nu: float
    first_exit_half: int | None
    first_exit_full: int | None

    @staticmethod
    def _label(value: int | None) -> str:
        return "never" if value is None else str(value)

    def to_text(self) -> str:
        return (
            f"exit from half ball B(nu/2): {self._label(self.first_exit_half)}; "
            f"exit from full ball B(nu): {self._label(self.first_exit_full)} (nu={self.nu:g})"
        )


def in_working_ball(dist, misfit, nu: float, misfit0: float, alpha: float):
    """Membership in B(nu), elementwise: distance and misfit conditions both hold."""
    return (dist <= nu * misfit0 / alpha) & (misfit <= (2.0 * nu / 3.0) * misfit0)


def neighborhood_monitor(
    traj: Trajectory, plan: TheoryPlan, center: Array, alpha: float
) -> NeighborhoodReport:
    """Report the first recorded iterations leaving B(nu/2) and B(nu).

    The trajectory must be recorded at stride 1 so exits cannot slip between
    rows; "never" means every recorded state stayed inside.
    """
    if traj.record_every != 1:
        raise ValueError("neighborhood monitoring needs a stride-1 trajectory")
    if plan.nu is None:
        raise ValueError("the plan carries no nu (was it a full-batch plan?)")
    def first_exit(nu: float) -> int | None:
        outside = ~in_working_ball(traj.dist_init, traj.misfit, nu, traj.misfit0, alpha)
        return int(traj.iters[np.argmax(outside)]) if outside.any() else None

    return NeighborhoodReport(nu=plan.nu, first_exit_half=first_exit(plan.nu / 2.0),
                              first_exit_full=first_exit(plan.nu))
