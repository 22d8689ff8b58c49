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
from .models import GLMModel, Model, _as_params
from .oracle import ENUMERATION_CAP, CapacityError

Array = np.ndarray

MISFIT_WEIGHT = 12.0
INIT_BOUND_FACTOR = 14.0
# Entries of the largest array a block of GLM drift states holds (512 KB).
_DRIFT_ENTRY_CAP = 1 << 16


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
    the achieved count) when max_attempts draws are exhausted. Sampling and
    ``verify_packing`` take O(K^2 p), so K above ENUMERATION_CAP raises
    CapacityError before any draw.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > ENUMERATION_CAP:
        raise CapacityError(f"K={K} anchors exceed enumeration cap {ENUMERATION_CAP}")
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
    size is in use. This is the one-state case of ``conditional_drifts``,
    where the method and its rounding are stated.
    """
    theta = np.asarray(theta, dtype=float)
    return DriftResult(*conditional_drifts(model, theta[None, :], eta, anchors, alpha)[0].tolist())


def conditional_drifts(
    model: Model,
    thetas: Array,
    eta: float,
    anchors: AnchorSet,
    alpha: float,
    states: Array | None = None,
) -> Array:
    """Exact one-step drifts at thetas[states] (every row when states is None):
    an (m, 3) array whose row k holds the (misfit, distance, potential)
    drifts of ``exact_conditional_drift`` at thetas[states[k]].

    Successor i of theta is theta - eta G_i, G_i = r_i J_i being sample i's
    gradient. Drifts are averaged per successor against base values taken
    from the same residual and squared distances, so a successor equal to
    theta adds exactly 0 to the distance drift.

    A GLM (the linear model too) has G_i = c_i x_i with c_i = r_i phi'(z_i),
    z = X theta, so a block of states is evaluated at once, in
    O(n^2 + nK + Kp) a state, from G = X X^T and the table T = X A^T of the
    anchors' offsets A = P - center, both formed once a call. Successor i's
    pre-activations are z - eta c_i G[i], and its squared distance to anchor
    a is ||theta - a||^2 - 2 eta c_i (x_i . t - T[i, a]) + (eta c_i ||x_i||)^2
    with t = theta - center. That value has an absolute error of about
    p * eps * (||theta - a|| + s_i + ||t|| + ||a - center||)^2, s_i being the
    step's length eta |c_i| ||x_i||: the two dot products of the cross term
    are taken against the packing's center, not against theta or zero.
    The other families take all n successors from one Jacobian, a state at a
    time: each successor's residual is one `model.residual` call, and their
    squared distances come from ||theta - a||^2 - 2 eta G_i . (theta - a) +
    eta^2 ||G_i||^2, with an error of about
    p * eps * (||theta - a|| + eta ||G_i||)^2. Relative to
    ||theta+ - a||^2, theta+ being the successor, either error is large only
    when a step lands far closer to an anchor than theta and the packing's
    scale. A GLM block holds at most _DRIFT_ENTRY_CAP entries per array, and
    other families walk successors in blocks of at most DENSE_SVD_ENTRY_CAP;
    thetas is read a block at a time, never copied whole.
    `oracle.enumerate_sgd_expectation` is the one-successor-at-a-time
    reference.
    """
    states = np.arange(len(thetas)) if states is None else np.asarray(states, dtype=int)
    drifts = DriftStream(model, eta, anchors, alpha)
    for first in range(0, len(states), drifts.chunk):
        drifts.add(thetas[states[first:first + drifts.chunk]])
    return drifts.drifts()


class DriftStream:
    """``conditional_drifts`` at states added a block at a time, in order, none kept
    once evaluated. A GLM's states are evaluated in the chunks of one call, however
    they arrive, so every drift has that call's bits; ``drifts`` returns them."""

    def __init__(self, model: Model, eta: float, anchors: AnchorSet, alpha: float):
        if model.n > ENUMERATION_CAP:
            raise CapacityError(f"n={model.n} exceeds enumeration cap {ENUMERATION_CAP}")
        self.model, self.eta, self.anchors, self.alpha = model, eta, anchors, alpha
        self.pending, self.done, self.chunk = np.empty((0, model.p)), [], 1
        if isinstance(model, GLMModel):
            X = model.X
            self.gram, self.table = X @ X.T, X @ (anchors.anchors - anchors.center).T
            per_state = model.n * max(model.n, anchors.K) + anchors.K * model.p
            self.chunk = max(1, _DRIFT_ENTRY_CAP // per_state)

    def add(self, thetas: Array, last: bool = False) -> None:
        """Evaluate the full chunks of the pending states and thetas; all when last."""
        thetas = np.concatenate([self.pending, thetas]) if len(self.pending) else thetas
        end = len(thetas) if last else len(thetas) - len(thetas) % self.chunk
        for first in range(0, end, self.chunk):
            block = thetas[first:first + self.chunk]
            pairs = _glm_drifts(self.model, block, self.eta, self.anchors, self.gram, self.table) \
                if isinstance(self.model, GLMModel) \
                else np.array([_jacobian_drift(self.model, block[0], self.eta, self.anchors)])
            self.done.append(np.column_stack(
                [pairs, MISFIT_WEIGHT * pairs[:, 0] + self.alpha * pairs[:, 1]]))
        self.pending = np.array(thetas[end:])

    def drifts(self) -> Array:
        """The (m, 3) drifts of every state added."""
        self.add(self.pending[:0], last=True)
        return np.concatenate([np.empty((0, 3)), *self.done])


def _glm_drifts(model: GLMModel, thetas: Array, eta: float, anchors: AnchorSet,
                gram: Array, table: Array) -> Array:
    """(misfit, distance) drifts of a (m, p) block of GLM states, as (m, 2)."""
    X, act = model.X, model.act
    thetas = _as_params(thetas, model.p)
    Z = thetas @ X.T  # (m, n)
    R = act.phi(Z) - model.y
    C = eta * R * act.dphi(Z)  # successor i moves theta by -C[:, i] x_i
    succ = act.phi(Z[:, None, :] - C[:, :, None] * gram) - model.y  # (m, n, n)
    d_misfit = (np.sqrt(np.vecdot(succ, succ)) - np.sqrt(np.vecdot(R, R))[:, None]).mean(axis=1)
    offsets = thetas[:, None, :] - anchors.anchors  # (m, K, p)
    base_sq = np.vecdot(offsets, offsets)
    cross = ((thetas - anchors.center) @ X.T)[:, :, None] - table  # x_i . (theta - p_l)
    step_sq = C * C * np.vecdot(X, X)
    dist_sq = base_sq[:, None, :] - 2.0 * C[:, :, None] * cross + step_sq[:, :, None]
    d_dist = (np.sqrt(np.maximum(dist_sq, 0.0)) - np.sqrt(base_sq)[:, None, :]).mean(axis=(1, 2))
    return np.stack([d_misfit, d_dist], axis=1)


def _jacobian_drift(model: Model, theta: Array, eta: float,
                    anchors: AnchorSet) -> tuple[float, float]:
    """(misfit, distance) drifts at one state, its successors from one Jacobian."""
    theta = np.asarray(theta, dtype=float)
    r = model.residual(theta)
    # Low-rank rows are per_sample_gradient(theta, i) bit for bit; GLM and net rows only
    # to rounding, as jacobian_row forms sample i's product alone and J all n at once.
    grads = r[:, None] * model.jacobian(theta)
    offsets = theta[None, :] - anchors.anchors  # (K, p)
    base_sq = np.einsum("kp,kp->k", offsets, offsets)
    base_dist = np.sqrt(base_sq)
    base_misfit = np.linalg.norm(r)
    rows = max(1, geometry.DENSE_SVD_ENTRY_CAP // max(model.n, model.p, anchors.K))
    sum_misfit = sum_dist = 0.0
    for start in range(0, model.n, rows):
        block = grads[start:start + rows]
        misfits = np.linalg.norm([model.residual(s) for s in theta - eta * block], axis=1)
        step_sq = eta * eta * np.einsum("ip,ip->i", block, block)
        dist_sq = base_sq - 2.0 * eta * (block @ offsets.T) + step_sq[:, None]
        sum_misfit += float(np.sum(misfits - base_misfit))
        sum_dist += float(np.sum(np.sqrt(np.maximum(dist_sq, 0.0)) - base_dist))
    return sum_misfit / model.n, sum_dist / (model.n * anchors.K)


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


def neighborhood_monitor(traj: Trajectory, plan: TheoryPlan, alpha: float) -> NeighborhoodReport:
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
