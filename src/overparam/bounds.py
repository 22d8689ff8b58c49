"""Inequality suites evaluated against recorded trajectories.

Each check walks a trajectory (or a family of them), computes the worst
per-iteration slack of one inequality, and reports pass/fail at a fixed
tolerance: exact identities at 1e-8 relative, one-sided inequalities at
1e-9 times their natural scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .descent import _BLOCK_ROWS, Trajectory
from .geometry import SpectrumBounds, TheoryPlan
from .models import Activation, GLMModel, LinearModel, Model
from .oracle import pseudo_inverse_solution
from .potentials import in_working_ball

Array = np.ndarray

IDENTITY_RTOL = 1e-8
INEQUALITY_RTOL = 1e-9


@dataclass(frozen=True)
class BoundRow:
    """Worst violation of a single inequality over a trajectory."""

    name: str
    group: str
    max_violation: float
    tolerance: float
    passed: bool | None  # None = inconclusive
    note: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "inconclusive"
        return "pass" if self.passed else "fail"


@dataclass
class BoundReport:
    rows: list[BoundRow] = field(default_factory=list)

    def add(self, name: str, group: str, violation: float, tolerance: float,
            note: str = "") -> None:
        if not math.isfinite(violation) and violation > 0:
            passed = False
        else:
            passed = bool(violation <= tolerance)
        self.rows.append(BoundRow(name, group, violation, tolerance, passed, note))

    def add_inconclusive(self, name: str, group: str, note: str) -> None:
        self.rows.append(BoundRow(name, group, math.nan, math.nan, None, note))

    def extend(self, other: "BoundReport") -> None:
        self.rows.extend(other.rows)

    @property
    def all_passed(self) -> bool:
        return all(row.passed is True for row in self.rows)

    @property
    def has_failure(self) -> bool:
        return any(row.passed is False for row in self.rows)

    def to_csv(self, stream: TextIO) -> None:
        stream.write("name,location,max_violation,pass\n")
        for row in self.rows:
            stream.write(
                f"{row.name},{row.group},{row.max_violation:.17g},{row.status}\n"
            )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.to_csv(fh)

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                f"[{row.status:>12}] {row.group}/{row.name}: "
                f"max violation {row.max_violation:.6g} (tolerance {row.tolerance:.6g})"
                + (f" -- {row.note}" if row.note else "")
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Full-batch descent checks
# ---------------------------------------------------------------------------

def check_gd_theorem(
    traj: Trajectory,
    plan: TheoryPlan,
    bounds: SpectrumBounds,
    theta_star: Array | None = None,
    include_potential: bool = True,
) -> BoundReport:
    """Check the squared-misfit envelope, the misfit/distance tradeoff, the
    path-length cap, and potential monotonicity for a full-batch run.

    Per-step potential monotonicity is a claim tied to the certified step
    size; pass include_potential=False for runs taken at a larger step.
    When the closest zero-residual point is supplied, the distance and path
    ratios against ||theta* - theta0|| are checked as well.
    """
    report = BoundReport()
    m0 = traj.misfit0
    taus = traj.iters.astype(float)

    envelope = plan.rate**taus * m0**2
    report.add(
        "squared_misfit_envelope", "gd",
        float(np.max(traj.misfit**2 - envelope)), INEQUALITY_RTOL * m0**2,
    )

    tradeoff = plan.zeta * traj.dist_init + traj.misfit - m0
    report.add(
        "misfit_distance_tradeoff", "gd",
        float(np.max(tradeoff)), INEQUALITY_RTOL * m0,
    )

    report.add(
        "path_length_bound", "gd",
        float(traj.path_len[-1] - plan.radius_R),
        INEQUALITY_RTOL * plan.radius_R if math.isfinite(plan.radius_R) else math.inf,
    )

    if include_potential:
        potential = traj.misfit + plan.zeta * traj.path_len
        steps = np.diff(potential)
        worst_step = float(np.max(steps)) if steps.size else 0.0
        report.add(
            "descent_potential_monotone", "gd",
            worst_step, 1e-10 * potential[0],
            note="checked over consecutive recorded rows",
        )

    if theta_star is not None:
        if traj.theta0 is None:
            raise ValueError("trajectory carries no theta0 (it was read from CSV)")
        d_star = float(np.linalg.norm(np.asarray(theta_star) - traj.theta0))
        ratio_bound = bounds.beta / plan.zeta * d_star
        report.add(
            "closest_optimum_distance_ratio", "gd",
            float(np.max(traj.dist_init) - ratio_bound), INEQUALITY_RTOL * (1.0 + ratio_bound),
        )
        report.add(
            "closest_optimum_path_ratio", "gd",
            float(traj.path_len[-1] - ratio_bound), INEQUALITY_RTOL * (1.0 + ratio_bound),
        )
    return report


def check_lower_bound(traj: Trajectory, beta: float) -> BoundReport:
    """Check misfit + beta * distance >= initial misfit at every recorded point.

    The floor holds for any point of the domain, not just descent iterates,
    so any recorded trajectory qualifies.
    """
    report = BoundReport()
    slack = traj.misfit0 - (traj.misfit + beta * traj.dist_init)
    report.add(
        "misfit_plus_distance_floor", "lower-bound",
        float(np.max(slack)), INEQUALITY_RTOL * traj.misfit0,
    )
    return report


def make_lower_bound_instance(
    alpha: float, beta: float, p: int, mode: str
) -> tuple[LinearModel, Array]:
    """Adversarial linear instance whose run hugs one tradeoff line exactly.

    The design matrix has two orthogonal rows of norms alpha and beta. Labels
    place the solution along the smallest-norm row direction ("tight-lower",
    every theta obeys misfit + alpha*||theta|| >= ||y|| with equality on the
    descent ray) or along the largest ("tight-upper", descent from zero keeps
    misfit + beta*||theta|| constant).
    """
    if not 0.0 < alpha <= beta:
        raise ValueError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    X = np.zeros((2, p))
    X[0, 0] = alpha
    X[1, 1] = beta
    gamma = beta / alpha
    if mode == "tight-upper":
        theta_star = np.zeros(p)
        theta_star[1] = gamma
    elif mode == "tight-lower":
        theta_star = np.zeros(p)
        theta_star[0] = gamma
    else:
        raise ValueError(f"mode must be 'tight-upper' or 'tight-lower', got {mode!r}")
    y = X @ theta_star
    return LinearModel(X, y), np.zeros(p)


def tight_line_coefficient(alpha: float, beta: float, mode: str) -> float:
    """Slope of the exact tradeoff line for the adversarial instance."""
    return beta if mode == "tight-upper" else alpha


def check_tight_line(traj: Trajectory, coefficient: float) -> BoundReport:
    """Check |misfit + c * distance - initial misfit| stays at rounding level."""
    report = BoundReport()
    deviation = np.abs(traj.misfit + coefficient * traj.dist_init - traj.misfit0)
    report.add(
        "tradeoff_line_equality", "lower-bound",
        float(np.max(deviation)), IDENTITY_RTOL * traj.misfit0,
    )
    return report


# ---------------------------------------------------------------------------
# Stochastic descent checks
# ---------------------------------------------------------------------------

def sgd_run_survives(traj: Trajectory, nu: float, alpha: float) -> bool:
    """True when every recorded state stayed inside the half working ball."""
    return bool(np.all(in_working_ball(traj.dist_init, traj.misfit, nu / 2.0,
                                       traj.misfit0, alpha)))


def check_sgd_theorem(
    trajs: list[Trajectory],
    plan: TheoryPlan,
    bounds: SpectrumBounds,
    max_tau: int | None = None,
) -> BoundReport:
    """Monte-Carlo check of the expected squared-misfit envelope.

    Runs that ever left the half working ball are excluded (the observable
    surrogate for the conditioning event); the surviving mean must stay under
    the envelope plus three standard errors at every step, and the exit
    frequency must stay under the planned failure probability plus three
    standard errors.
    """
    report = BoundReport()
    if plan.nu is None or plan.fail_prob is None:
        raise ValueError("check_sgd_theorem needs a stochastic plan (with nu)")
    if not trajs:
        report.add_inconclusive("sgd_mean_square_envelope", "sgd", "no runs supplied")
        return report
    m0 = trajs[0].misfit0
    for traj in trajs:
        if abs(traj.misfit0 - m0) > 1e-12 * (1.0 + m0):
            raise ValueError("all runs must share the same start (misfit0 differs)")
        if traj.record_every != 1:
            raise ValueError("check_sgd_theorem needs stride-1 trajectories")

    survivors = [t for t in trajs if sgd_run_survives(t, plan.nu, bounds.alpha)]
    n_runs = len(trajs)
    exits = n_runs - len(survivors)
    freq = exits / n_runs
    se_freq = math.sqrt(freq * (1.0 - freq) / n_runs)
    report.add(
        "sgd_exit_frequency", "sgd",
        freq - (plan.fail_prob + 3.0 * se_freq), 1e-12,
        note=f"{exits}/{n_runs} runs left the half ball; bound {plan.fail_prob:.6g}",
    )

    if not survivors:
        report.add_inconclusive(
            "sgd_mean_square_envelope", "sgd", "no run stayed inside the half ball"
        )
        return report

    horizon = min(len(t.iters) for t in survivors)
    if max_tau is not None:
        horizon = min(horizon, max_tau + 1)
    sq = np.stack([t.misfit[:horizon] ** 2 for t in survivors])
    mean_sq = sq.mean(axis=0)
    if len(survivors) > 1:
        se = sq.std(axis=0, ddof=1) / math.sqrt(len(survivors))
    else:
        se = np.zeros(horizon)
    taus = survivors[0].iters[:horizon].astype(float)
    envelope = plan.rate**taus * m0**2
    viol = float(np.max(mean_sq - envelope - 3.0 * se))
    report.add(
        "sgd_mean_square_envelope", "sgd", viol, INEQUALITY_RTOL * m0**2,
        note=f"{len(survivors)} surviving runs, horizon {horizon - 1}",
    )
    return report


# ---------------------------------------------------------------------------
# Closest-optimum machinery for (generalized) linear models
# ---------------------------------------------------------------------------

def invert_activation(act: Activation, targets: Array) -> Array:
    """Solve phi(z) = t per entry by bisection inside the certified slope bracket.

    gamma <= phi' <= Gamma puts the root between (t - phi(0)) / Gamma and
    (t - phi(0)) / gamma; bisection runs until no midpoint moves, so the
    identity returns t bit for bit. Needs gamma > 0 and finite targets whose
    bracket lies within a quarter of the float64 range, where no sum overflows.
    """
    targets = np.asarray(targets, dtype=float)
    shift = targets - act.phi(np.zeros_like(targets))
    reach = 0.25 * act.gamma * float(np.finfo(float).max)
    if not (act.gamma > 0.0 and np.all(np.abs(shift) <= reach)):
        raise ValueError(f"activation inverse needs gamma > 0 (got {act.gamma}) and finite "
                         "targets within a quarter of the float64 range")
    lo, hi = np.sort([shift / act.big_gamma, shift / act.gamma], axis=0)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return mid
        high_side = act.phi(mid) > targets
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)


def closest_optimum_glm(model: GLMModel, theta0: Array) -> Array:
    """Zero-residual parameter nearest to theta0, in closed form.

    theta0 plus the minimum-norm solution d of X d = phi^{-1}(y) - X theta0.
    Verified to interpolate the labels before returning. A rank-deficient X
    raises numpy's LinAlgError, a ValueError.
    """
    theta0 = np.asarray(theta0, dtype=float)
    z = invert_activation(model.act, model.y)
    theta_star = theta0 + pseudo_inverse_solution(model.X, z - model.X @ theta0)
    resid = model.misfit(theta_star)
    if resid > 1e-8 * (1.0 + float(np.linalg.norm(model.y))):
        raise ValueError(f"closest-optimum candidate keeps residual {resid}")
    return theta_star


class GLMTheoremTerms:
    """``check_glm_theorem``'s per-row terms as running maxima, fed the rows in order,
    at most _BLOCK_ROWS at a time: an observer for ``run_gd``, which then keeps no
    thetas. The null-space projection, a matrix product, gives a row other bits when
    it takes under 13 rows (one OpenBLAS thread), so it takes the last _BLOCK_ROWS rows
    seen: a short last block with rows of the one before, repeated in the maximum."""

    def __init__(self, model: GLMModel, theta_star: Array, eta: float):
        X, act, self.theta_star = model.X, model.act, np.asarray(theta_star, dtype=float)
        sv = np.linalg.svd(X, compute_uv=False)
        lam_min, lam_max = float(sv[-1] ** 2), float(sv[0] ** 2)
        self.rate = 1.0 - eta * act.gamma**2 * lam_min
        self.spread = (act.big_gamma**2 / act.gamma**2) * (lam_max / lam_min)
        self.Xt, self.projector = X.T, np.linalg.solve(X @ X.T, X)
        self.window, self.theta0, self.d0 = np.empty((0, X.shape[1])), None, None
        self.excess = self.drift = -np.inf

    def __call__(self, iters: Array, thetas: Array, *_) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged row fails, silently
            dists = np.linalg.norm(thetas - self.theta_star, axis=1)
            if self.theta0 is None:
                self.theta0, self.d0 = thetas[0].copy(), float(dists[0])
            self.excess = np.maximum(self.excess, np.max(dists - self.rate ** iters * self.d0))
            self.window = np.concatenate([self.window, thetas])[-_BLOCK_ROWS:]
            drift = self.window - self.theta0
            drift -= (drift @ self.Xt) @ self.projector
            self.drift = np.maximum(self.drift, np.max(np.linalg.norm(drift, axis=1)))

    def report(self, traj: Trajectory) -> BoundReport:
        report, path_bound = BoundReport(), self.spread * self.d0
        with np.errstate(over="ignore", invalid="ignore"):
            report.add("distance_to_optimum_envelope", "glm", float(self.excess),
                       INEQUALITY_RTOL * (1.0 + self.d0), note=f"rate {self.rate:.12g}")
            report.add("glm_path_length_bound", "glm", float(traj.path_len[-1] - path_bound),
                       INEQUALITY_RTOL * (1.0 + path_bound))
            report.add("null_space_component_drift", "glm", float(self.drift),
                       1e-10 * (1.0 + float(np.linalg.norm(self.theta0))))
        return report


def check_glm_theorem(traj: Trajectory, model: GLMModel,
                      theta_star: Array) -> BoundReport:
    """Distance-to-optimum contraction and path-length cap for a GLM run.

    Needs the trajectory recorded with parameter vectors. The contraction
    factor is 1 - eta * gamma^2 * lambda_min(X X^T); the path cap is
    (Gamma/gamma)^2 * cond(X X^T) * ||theta0 - theta*||. The null-space
    component of the iterates must not move. The rows go through
    ``GLMTheoremTerms`` in the recorder's blocks, as in a run it observes.
    """
    if traj.thetas is None:
        raise ValueError("check_glm_theorem needs record_thetas=True")
    terms = GLMTheoremTerms(model, theta_star, traj.eta)
    for first in range(0, len(traj), _BLOCK_ROWS):
        terms(traj.iters[first:first + _BLOCK_ROWS], traj.thetas[first:first + _BLOCK_ROWS])
    return terms.report(traj)


# ---------------------------------------------------------------------------
# Gradient-dominance (general loss) checks
# ---------------------------------------------------------------------------

def check_pl_theorems(
    traj: Trajectory, mu: float, smoothness_L: float | None, loss0: float
) -> BoundReport:
    """Loss envelope, potential monotonicity, path cap, and the no-nearby-
    optimum floor for a general-loss descent run."""
    report = BoundReport()
    taus = traj.iters.astype(float)
    envelope = (1.0 - traj.eta * mu) ** taus * loss0
    report.add(
        "loss_envelope", "pl",
        float(np.max(traj.loss - envelope)), INEQUALITY_RTOL * (1.0 + loss0),
    )

    steps = np.diff(traj.gd_potential)
    report.add(
        "potential_monotone", "pl",
        float(np.max(steps)) if steps.size else 0.0,
        1e-10 * traj.gd_potential[0],
    )

    path_bound = math.sqrt(8.0 * loss0 / mu)
    report.add(
        "path_length_bound", "pl",
        float(traj.path_len[-1] - path_bound), INEQUALITY_RTOL * (1.0 + path_bound),
    )

    if smoothness_L is not None:
        floor = math.sqrt(2.0 * loss0 / smoothness_L) - 1e-6
        zero_rows = np.flatnonzero(traj.loss <= 1e-20)
        if zero_rows.size == 0:
            # the floor constrains recorded zero-loss points; none were
            # recorded, so it holds vacuously
            report.add(
                "optimum_distance_floor", "pl", -math.inf, 1e-12,
                note="no zero-loss iterate recorded; vacuously satisfied",
            )
        else:
            first = int(zero_rows[0])
            report.add(
                "optimum_distance_floor", "pl",
                floor - float(traj.dist_init[first]), 1e-12,
                note=f"first zero-loss row at iteration {int(traj.iters[first])}",
            )
    return report
