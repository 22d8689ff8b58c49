"""Descent with per-iteration trajectory recording.

One loop, theta <- theta - eta * g(theta), serves three entry points that
differ only in g and in what they monitor: full-batch gradient descent,
single-sample stochastic gradient descent, and gradient descent on a general
loss under a local gradient-dominance condition. A single run is strictly
sequential; independent runs may execute concurrently and finished
trajectories are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from .models import Model

Array = np.ndarray

TRAJECTORY_HEADER = (
    "iter,loss,misfit,dist_init,path_len,step_norm,"
    "gd_potential,sgd_potential,norm_misfit,norm_dist"
)


@dataclass(frozen=True)
class OptimConfig:
    """Loop controls shared by all descent runs.

    tol_misfit stops a run once ||f(theta) - y|| falls to the tolerance;
    record_every thins trajectory storage (potential checks over recorded
    rows are then stride-dependent). potential_zeta weights the path-length
    term of the recorded descent potential.
    """

    eta: float
    max_iters: int
    tol_misfit: float = 0.0
    seed: int | None = None
    record_every: int = 1
    record_thetas: bool = False
    potential_zeta: float = 0.0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol_misfit < 0:
            raise ValueError(f"tol_misfit must be >= 0, got {self.tol_misfit}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def default_tolerance(y: Array) -> float:
    """Stopping tolerance 1e-10 * (1 + ||y||)."""
    return 1e-10 * (1.0 + float(np.linalg.norm(y)))


@dataclass
class Trajectory:
    """Per-iteration record of a single descent run.

    Columnar arrays share an index; ``thetas`` (one row per recorded
    iteration) is populated only when the run was configured with
    record_thetas and is not part of the CSV schema.
    """

    iters: Array
    loss: Array
    misfit: Array
    dist_init: Array
    path_len: Array
    step_norm: Array
    gd_potential: Array
    sgd_potential: Array  # NaN where no anchor potential was evaluated
    norm_misfit: Array
    norm_dist: Array
    theta_final: Array
    termination: str
    eta: float
    misfit0: float
    theta0_norm: float
    record_every: int
    norm_dist_is_raw: bool = False
    abort_iter: int | None = None
    thetas: Array | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.iters)

    # -- serialization -----------------------------------------------------

    def to_csv(self, stream: TextIO) -> None:
        """Emit the bit-exact CSV schema plus `#` trailer metadata lines."""
        stream.write(TRAJECTORY_HEADER + "\n")
        if self.norm_dist_is_raw:
            stream.write("# norm_dist holds raw dist_init (theta0 has zero norm)\n")
        for idx in range(len(self.iters)):
            sgd = "" if math.isnan(self.sgd_potential[idx]) else _fmt(self.sgd_potential[idx])
            stream.write(
                ",".join(
                    [
                        str(int(self.iters[idx])),
                        _fmt(self.loss[idx]),
                        _fmt(self.misfit[idx]),
                        _fmt(self.dist_init[idx]),
                        _fmt(self.path_len[idx]),
                        _fmt(self.step_norm[idx]),
                        _fmt(self.gd_potential[idx]),
                        sgd,
                        _fmt(self.norm_misfit[idx]),
                        _fmt(self.norm_dist[idx]),
                    ]
                )
                + "\n"
            )
        stream.write(f"# termination={self.termination}\n")
        stream.write(f"# eta={_fmt(self.eta)}\n")
        stream.write(f"# misfit0={_fmt(self.misfit0)}\n")
        stream.write(f"# theta0_norm={_fmt(self.theta0_norm)}\n")
        stream.write(f"# record_every={self.record_every}\n")
        if self.abort_iter is not None:
            stream.write(f"# abort_iter={self.abort_iter}\n")
        stream.write("# theta_final=" + " ".join(_fmt(v) for v in self.theta_final) + "\n")

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.to_csv(fh)

    @classmethod
    def from_csv(cls, stream: TextIO) -> "Trajectory":
        header = stream.readline().rstrip("\n")
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header: {header!r}")
        cols: list[list[float]] = [[] for _ in range(10)]
        meta: dict[str, str] = {}
        norm_dist_is_raw = False
        for raw in stream:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                elif "raw dist_init" in body:
                    norm_dist_is_raw = True
                continue
            parts = line.split(",")
            if len(parts) != 10:
                raise ValueError(f"malformed trajectory row: {line!r}")
            for k, part in enumerate(parts):
                cols[k].append(float(part) if part != "" else math.nan)
        theta_final = np.array([float(v) for v in meta.get("theta_final", "").split()])
        abort = meta.get("abort_iter")
        return cls(
            iters=np.array(cols[0], dtype=int),
            loss=np.array(cols[1]),
            misfit=np.array(cols[2]),
            dist_init=np.array(cols[3]),
            path_len=np.array(cols[4]),
            step_norm=np.array(cols[5]),
            gd_potential=np.array(cols[6]),
            sgd_potential=np.array(cols[7]),
            norm_misfit=np.array(cols[8]),
            norm_dist=np.array(cols[9]),
            theta_final=theta_final,
            termination=meta.get("termination", "unknown"),
            eta=float(meta.get("eta", "nan")),
            misfit0=float(meta.get("misfit0", "nan")),
            theta0_norm=float(meta.get("theta0_norm", "nan")),
            record_every=int(meta.get("record_every", "1")),
            norm_dist_is_raw=norm_dist_is_raw,
            abort_iter=int(abort) if abort is not None else None,
        )

    @classmethod
    def load(cls, path) -> "Trajectory":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv(fh)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _Recorder:
    """Accumulates rows for a Trajectory under construction."""

    def __init__(self, theta0: Array, misfit0: float, cfg: OptimConfig):
        self.theta0 = theta0.copy()
        self.theta0_norm = float(np.linalg.norm(theta0))
        self.misfit0 = misfit0
        self.cfg = cfg
        self.norm_dist_is_raw = self.theta0_norm == 0.0
        self.rows: list[tuple] = []
        self.thetas: list[Array] | None = [] if cfg.record_thetas else None
        self.last_iter = -1

    def record(
        self,
        tau: int,
        theta: Array,
        loss: float,
        misfit: float,
        path_len: float,
        step_norm: float,
        gd_potential: float,
        sgd_potential: float = math.nan,
    ) -> None:
        if tau == self.last_iter:
            return
        self.last_iter = tau
        dist = float(np.linalg.norm(theta - self.theta0))
        norm_misfit = misfit / self.misfit0 if self.misfit0 > 0 else misfit
        norm_dist = dist if self.norm_dist_is_raw else dist / self.theta0_norm
        self.rows.append(
            (tau, loss, misfit, dist, path_len, step_norm, gd_potential, sgd_potential,
             norm_misfit, norm_dist)
        )
        if self.thetas is not None:
            self.thetas.append(theta.copy())

    def finish(self, theta: Array, termination: str, abort_iter: int | None = None) -> Trajectory:
        data = np.array(self.rows, dtype=float)
        return Trajectory(
            iters=data[:, 0].astype(int),
            loss=data[:, 1],
            misfit=data[:, 2],
            dist_init=data[:, 3],
            path_len=data[:, 4],
            step_norm=data[:, 5],
            gd_potential=data[:, 6],
            sgd_potential=data[:, 7],
            norm_misfit=data[:, 8],
            norm_dist=data[:, 9],
            theta_final=theta.copy(),
            termination=termination,
            eta=self.cfg.eta,
            misfit0=self.misfit0,
            theta0_norm=self.theta0_norm,
            record_every=self.cfg.record_every,
            norm_dist_is_raw=self.norm_dist_is_raw,
            abort_iter=abort_iter,
            thetas=np.array(self.thetas) if self.thetas is not None else None,
        )


def _descend(
    theta0: Array,
    cfg: OptimConfig,
    measure: Callable[[Array], tuple[float, float]],
    direction: Callable[[int, Array], Array],
    potential: Callable[[Array, float, float], float],
    anchored: Callable[[Array, float], float] | None = None,
    stationary_exit: bool = True,
) -> Trajectory:
    """The loop of every run: theta <- theta - eta * direction(tau, theta).

    measure(theta) returns (loss, misfit); potential(theta, misfit, path_len)
    fills the gd_potential column and anchored(theta, misfit) the
    sgd_potential column. Overflow raises no warning: a non-finite loss ends
    the run as "non_finite" with abort_iter set.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.asarray(theta0, dtype=float).copy()
        loss, misfit = measure(theta)
        rec = _Recorder(theta, misfit, cfg)
        path_len = step_norm = 0.0

        def record(tau: int) -> None:
            sgd = math.nan if anchored is None else anchored(theta, misfit)
            rec.record(tau, theta, loss, misfit, path_len, step_norm,
                       potential(theta, misfit, path_len), sgd)

        record(0)
        termination = "max_iters"
        abort_iter = None
        for tau in range(1, cfg.max_iters + 1):
            if misfit <= cfg.tol_misfit:
                termination = "tol"
                break
            g = direction(tau, theta)
            if stationary_exit and not np.any(g):
                record(tau - 1)
                termination = "stationary"
                break
            step = cfg.eta * g
            theta = theta - step
            step_norm = float(np.linalg.norm(step))
            path_len += step_norm
            loss, misfit = measure(theta)
            terminal = not math.isfinite(loss) or misfit <= cfg.tol_misfit or tau == cfg.max_iters
            if tau % cfg.record_every == 0 or terminal:
                record(tau)
            if not math.isfinite(loss):
                termination = "non_finite"
                abort_iter = tau
                break
            if misfit <= cfg.tol_misfit:
                termination = "tol"
                break
        return rec.finish(theta, termination, abort_iter)


def _least_squares(model: Model, theta: Array) -> tuple[float, float]:
    misfit = model.misfit(theta)
    return 0.5 * misfit**2, misfit


def run_gd(model: Model, theta0: Array, cfg: OptimConfig) -> Trajectory:
    """Full-batch descent theta <- theta - eta * J^T r, deterministically.

    Stops at the misfit tolerance, at max_iters, at an exactly-zero gradient
    ("stationary"), or when the loss turns non-finite ("non_finite", with the
    offending iteration recorded as abort_iter).
    """
    return _descend(
        theta0, cfg, lambda theta: _least_squares(model, theta),
        direction=lambda tau, theta: model.gradient(theta),
        potential=lambda theta, misfit, path_len: misfit + cfg.potential_zeta * path_len,
    )


def sgd_index_stream(seed: int, n: int, length: int) -> Array:
    """The SGD sample indices: a pure function of (seed, step) via Philox."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, n, size=length)


def run_sgd(
    model: Model,
    theta0: Array,
    cfg: OptimConfig,
    anchors=None,
    alpha: float | None = None,
) -> Trajectory:
    """Single-sample stochastic descent with a seeded, replayable index stream.

    Each step draws gamma uniformly from {0..n-1} and applies
    theta <- theta - eta * r_gamma * J_gamma^T (no 1/n scaling). When an
    anchor set and alpha are supplied, the anchored potential
    12*misfit + (alpha/K) * sum_l ||theta - p_l|| is recorded per row.
    Identical seeds reproduce the trajectory bit for bit.
    """
    if cfg.seed is None:
        raise ValueError("SGD requires cfg.seed")
    if anchors is not None and alpha is None:
        raise ValueError("anchored potential recording needs alpha")
    indices = sgd_index_stream(cfg.seed, model.n, cfg.max_iters)

    def anchored_potential(theta: Array, misfit: float) -> float:
        dists = np.linalg.norm(anchors.anchors - theta[None, :], axis=1)
        return 12.0 * misfit + (alpha / anchors.K) * float(dists.sum())

    # One sample's gradient can vanish at a point that is not stationary for
    # the full loss, so a zero step does not end the run.
    return _descend(
        theta0, cfg, lambda theta: _least_squares(model, theta),
        direction=lambda tau, theta: model.per_sample_gradient(theta, int(indices[tau - 1])),
        potential=lambda theta, misfit, path_len: misfit + cfg.potential_zeta * path_len,
        anchored=None if anchors is None else anchored_potential,
        stationary_exit=False,
    )


@dataclass(frozen=True)
class GeneralLoss:
    """A differentiable loss with gradient and optional smoothness constant.

    The minimum is assumed to be zero (shift the loss otherwise).
    """

    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    smoothness_L: float | None = None


def run_pl_gd(loss_fn: GeneralLoss, theta0: Array, cfg: OptimConfig, mu: float) -> Trajectory:
    """Gradient descent on a general loss, monitored in square-root scale.

    The misfit column holds sqrt(loss) and gd_potential holds
    sqrt(mu/8) * ||theta - theta0|| + sqrt(loss), the quantities that contract
    under the local gradient-dominance condition. Requires eta <= 1/L when a
    smoothness constant is supplied.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if loss_fn.smoothness_L is not None and cfg.eta > 1.0 / loss_fn.smoothness_L + 1e-15:
        raise ValueError(
            f"eta={cfg.eta} exceeds 1/L={1.0 / loss_fn.smoothness_L} for the supplied L"
        )
    start = np.array(theta0, dtype=float)

    def measure(theta: Array) -> tuple[float, float]:
        loss = float(loss_fn.value(theta))
        return loss, math.sqrt(max(loss, 0.0))

    return _descend(
        start, cfg, measure,
        direction=lambda tau, theta: np.asarray(loss_fn.grad(theta), dtype=float),
        potential=lambda theta, root, path_len: (
            math.sqrt(mu / 8.0) * float(np.linalg.norm(theta - start)) + root
        ),
    )


@dataclass(frozen=True)
class PLCheckReport:
    """Sampled verdict on ||grad||^2 >= 2 mu loss over a ball."""

    mu: float
    radius: float
    min_slack: float
    worst_point: Array
    probe_count: int

    @property
    def passed(self) -> bool:
        return self.min_slack >= -1e-12

    def to_text(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"gradient-dominance check: {verdict} (mu={self.mu:.6g}, "
            f"min slack {self.min_slack:.6g} over {self.probe_count} probes, "
            f"radius {self.radius:.6g}); empirical over probed points only"
        )


def local_pl_check(
    loss_fn: GeneralLoss,
    center: Array,
    radius: float,
    mu: float,
    samples: int = 64,
    seed: int = 0,
) -> PLCheckReport:
    """Evaluate ||grad L||^2 - 2 mu L at the center and sampled ball points."""
    from .geometry import sample_ball

    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    points = np.vstack([center[None, :], sample_ball(center, radius, samples, rng)])
    min_slack = math.inf
    worst = center
    for pt in points:
        g = np.asarray(loss_fn.grad(pt), dtype=float)
        slack = float(g @ g) - 2.0 * mu * float(loss_fn.value(pt))
        if slack < min_slack:
            min_slack = slack
            worst = pt
    return PLCheckReport(
        mu=mu, radius=radius, min_slack=min_slack, worst_point=worst, probe_count=len(points)
    )
