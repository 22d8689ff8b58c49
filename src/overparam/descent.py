"""Descent with per-iteration trajectory recording.

One loop, theta <- theta - eta * g(theta), serves three entry points that
differ only in g and in what they monitor: full-batch gradient descent,
single-sample stochastic gradient descent, and gradient descent on a general
loss under a local gradient-dominance condition. Each step of the two
least-squares runs evaluates the model's forward pass once: the residual
measured for the misfit column is the one the next step pulls back through
the Jacobian (``Model.gradient(theta, r)``). Beyond that, a step takes the
dot-product norms (``models.vector_norm``) of r, the step and theta - theta0;
the model checks theta once per call. A single run is strictly sequential;
independent runs may execute concurrently and finished trajectories are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, TextIO

import numpy as np

from .geometry import probe_points
from .models import Model, vector_norm

Array = np.ndarray

# (CSV column, Trajectory field) in column order: the one statement of the schema.
_COLUMNS = (
    ("iter", "iters"),
    ("loss", "loss"),
    ("misfit", "misfit"),
    ("dist_init", "dist_init"),
    ("path_len", "path_len"),
    ("step_norm", "step_norm"),
    ("gd_potential", "gd_potential"),
    ("sgd_potential", "sgd_potential"),
    ("norm_misfit", "norm_misfit"),
    ("norm_dist", "norm_dist"),
)
TRAJECTORY_HEADER = ",".join(column for column, _ in _COLUMNS)
_CSV_BLOCK_ROWS = 1024


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
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"step size must be finite and positive, got {self.eta}")
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
        """Emit the bit-exact CSV schema plus `#` trailer metadata lines.

        Every value prints as f"{x:.17g}" (iteration counts, being whole
        numbers below 1e17, print as plain integers), so nan and inf appear as
        ``nan`` and ``inf``; only sgd_potential prints NaN (no anchor potential
        was evaluated) as an empty field.
        """
        stream.write(TRAJECTORY_HEADER + "\n")
        if self.norm_dist_is_raw:
            stream.write("# norm_dist holds raw dist_init (theta0 has zero norm)\n")
        # Format a block of rows at a time, column by column, so the cells held
        # at once stay small next to the trajectory itself.
        for first in range(0, len(self), _CSV_BLOCK_ROWS):
            cells = []
            for _, name in _COLUMNS:
                blank = name == "sgd_potential"
                values = getattr(self, name)[first:first + _CSV_BLOCK_ROWS].tolist()
                cells.append(["" if blank and math.isnan(v) else f"{v:.17g}" for v in values])
            stream.writelines(",".join(row) + "\n" for row in zip(*cells))
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
        cols: list[list[float]] = [[] for _ in _COLUMNS]
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
            if len(parts) != len(_COLUMNS):
                raise ValueError(f"malformed trajectory row: {line!r}")
            for k, part in enumerate(parts):
                cols[k].append(float(part) if part != "" else math.nan)
        theta_final = np.array([float(v) for v in meta.get("theta_final", "").split()])
        abort = meta.get("abort_iter")
        return cls(
            **_column_fields(cols),
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


def _column_fields(columns: Iterable) -> dict[str, Array]:
    """The Trajectory column fields from value sequences in CSV column order."""
    fields = {name: np.array(values, dtype=float) for (_, name), values in zip(_COLUMNS, columns)}
    fields["iters"] = fields["iters"].astype(int)
    return fields


def _descend(
    theta0: Array,
    cfg: OptimConfig,
    measure: Callable[[Array], tuple[float, float, Array | None]],
    direction: Callable[[int, Array, Array | None], Array],
    potential: Callable[[float, float, float], float],
    anchored: Callable[[Array, float], float] | None = None,
    stationary_exit: bool = True,
) -> Trajectory:
    """The loop of every run: theta <- theta - eta * direction(tau, theta, r).

    measure(theta) returns (loss, misfit, r), where r is the residual at theta
    (None for a general loss) and is handed to the direction of the next step,
    so theta is evaluated once per step. potential(dist_init, misfit, path_len)
    fills the gd_potential column and anchored(theta, misfit) the
    sgd_potential column. Overflow raises no warning: a non-finite loss ends
    the run as "non_finite" with abort_iter set.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.array(theta0, dtype=float)
        theta = start.copy()
        loss, misfit, r = measure(theta)
        misfit0 = misfit
        path_len = step_norm = 0.0
        rows: list[tuple] = []  # iter through sgd_potential, one tuple per recorded iterate
        thetas: list[Array] | None = [] if cfg.record_thetas else None

        def record(tau: int) -> None:
            if rows and rows[-1][0] == tau:
                return
            sgd = math.nan if anchored is None else anchored(theta, misfit)
            dist = vector_norm(theta - start)
            rows.append((tau, loss, misfit, dist, path_len, step_norm,
                         potential(dist, misfit, path_len), sgd))
            if thetas is not None:
                thetas.append(theta.copy())

        record(0)
        termination = "max_iters"
        abort_iter = None
        for tau in range(1, cfg.max_iters + 1):
            if misfit <= cfg.tol_misfit:
                termination = "tol"
                break
            g = direction(tau, theta, r)
            if stationary_exit and not np.any(g):
                record(tau - 1)
                termination = "stationary"
                break
            step = cfg.eta * g
            theta = theta - step
            step_norm = vector_norm(step)
            path_len += step_norm
            loss, misfit, r = measure(theta)
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
        # norm_misfit and norm_dist; dividing by 1.0 leaves a column bit-for-bit unchanged.
        columns = np.array(rows, dtype=float).T
        theta0_norm = float(np.linalg.norm(start))
        return Trajectory(
            **_column_fields([*columns, columns[2] / (misfit0 if misfit0 > 0 else 1.0),
                              columns[3] / (theta0_norm or 1.0)]),
            theta_final=theta.copy(),
            termination=termination,
            eta=cfg.eta,
            misfit0=misfit0,
            theta0_norm=theta0_norm,
            record_every=cfg.record_every,
            norm_dist_is_raw=theta0_norm == 0.0,
            abort_iter=abort_iter,
            thetas=None if thetas is None else np.array(thetas),
        )


def _measure_residual(model: Model, theta: Array) -> tuple[float, float, Array]:
    """(0.5 * misfit^2, misfit, residual) at theta, for the least-squares runs."""
    r = model.residual(theta)
    misfit = vector_norm(r)
    return 0.5 * misfit**2, misfit, r


def _misfit_potential(cfg: OptimConfig) -> Callable[[float, float, float], float]:
    """The least-squares runs' gd_potential: misfit + potential_zeta * path_len."""
    return lambda dist, misfit, path_len: misfit + cfg.potential_zeta * path_len


def run_gd(model: Model, theta0: Array, cfg: OptimConfig) -> Trajectory:
    """Full-batch descent theta <- theta - eta * J^T r, deterministically.

    r is the residual already measured at theta, handed to ``model.gradient``
    so it is not computed again. Stops at the misfit tolerance, at max_iters,
    at an exactly-zero gradient ("stationary"), or when the loss turns
    non-finite ("non_finite", with the offending iteration recorded as
    abort_iter).
    """
    return _descend(
        theta0, cfg, lambda theta: _measure_residual(model, theta),
        direction=lambda tau, theta, r: model.gradient(theta, r),
        potential=_misfit_potential(cfg),
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
        D = anchors.anchors - theta
        dists = np.sqrt(np.add.reduce(D * D, axis=1))  # np.linalg.norm(D, axis=1), bit for bit
        return 12.0 * misfit + (alpha / anchors.K) * float(dists.sum())

    # One sample's gradient can vanish at a point that is not stationary for
    # the full loss, so a zero step does not end the run.
    return _descend(
        theta0, cfg, lambda theta: _measure_residual(model, theta),
        direction=lambda tau, theta, r: model.per_sample_gradient(
            theta, int(indices[tau - 1]), r),
        potential=_misfit_potential(cfg),
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
    model: Model | None = None  # set by model_loss: value and grad are its least squares

    def measure(self, theta: Array) -> tuple[float, float, Array | None]:
        """(loss, sqrt(loss), r) at theta, r being the residual for a loss from
        ``model_loss`` (None otherwise): ``direction`` pulls it back, so a point
        costs one forward pass, with ``value`` and ``grad``'s bits."""
        r = None if self.model is None else self.model.residual(theta)
        loss = float(self.value(theta)) if r is None else 0.5 * float(r @ r)  # Model.loss
        return loss, math.sqrt(max(loss, 0.0)), r

    def direction(self, theta: Array, r: Array | None) -> Array:
        """The gradient at theta, given the r that ``measure`` returned there."""
        if r is None:
            return np.asarray(self.grad(theta), dtype=float)
        return self.model.gradient(theta, r)


def model_loss(model: Model, smoothness_L: float | None = None) -> GeneralLoss:
    """0.5 ||f(theta) - y||^2 of `model`, which ``run_pl_gd`` descends with one
    forward pass a step (the residual measured for the loss is pulled back)."""
    return GeneralLoss(value=model.loss, grad=model.gradient, smoothness_L=smoothness_L,
                       model=model)


def run_pl_gd(loss_fn: GeneralLoss, theta0: Array, cfg: OptimConfig, mu: float) -> Trajectory:
    """Gradient descent on a general loss, monitored in square-root scale.

    The misfit column holds sqrt(loss) and gd_potential holds
    sqrt(mu/8) * ||theta - theta0|| + sqrt(loss), the quantities that contract
    under the local gradient-dominance condition. Requires eta <= 1/L when a
    smoothness constant is supplied. A loss from ``model_loss`` runs the
    model's forward pass once a step, the same run bit for bit.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    # A relative slack: an absolute one admits eta far above 1/L once L is large.
    if loss_fn.smoothness_L is not None and cfg.eta > (1.0 + 1e-15) / loss_fn.smoothness_L:
        raise ValueError(
            f"eta={cfg.eta} exceeds 1/L={1.0 / loss_fn.smoothness_L} for the supplied L"
        )
    return _descend(
        theta0, cfg, loss_fn.measure, lambda tau, theta, r: loss_fn.direction(theta, r),
        potential=lambda dist, root, path_len: math.sqrt(mu / 8.0) * dist + root,
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
    """Evaluate ||grad L||^2 - 2 mu L at the center and sampled ball points
    (one forward pass a point for a loss from ``model_loss``)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    points = probe_points(center, radius, samples, seed)
    min_slack = math.inf
    worst = points[0]
    for pt in points:
        loss, _, r = loss_fn.measure(pt)
        g = loss_fn.direction(pt, r)
        slack = float(g @ g) - 2.0 * mu * loss
        if slack < min_slack:
            min_slack = slack
            worst = pt
    return PLCheckReport(
        mu=mu, radius=radius, min_slack=min_slack, worst_point=worst, probe_count=len(points)
    )
