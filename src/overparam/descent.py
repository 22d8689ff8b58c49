"""Descent with per-iteration trajectory recording.

One loop serves three entry points that differ only in their stepper and
in what they monitor: full-batch gradient descent, single-sample stochastic
gradient descent, and gradient descent on a general loss under a local
gradient-dominance condition. The loop advances theta a block of steps at a
time and cuts a block at its first terminal row. A gradient stepper's block
is one step, theta <- theta - eta * g(theta), which evaluates the model's
forward pass once: the residual measured for the misfit column is the one
the next step pulls back through the Jacobian (``Model.gradient(theta, r)``,
or one sample's row). Beyond that, a step takes the dot-product norms
(``models.vector_norm``) of r and the step; the model checks theta once per
call. GLM SGD (the linear model too, ``_glm_sgd``) steps up to 64 at a time
on a kept z = X theta with no forward pass: only a scalar recurrence runs a
step at a time, the block's thetas, residuals and norms come as arrays, and
z is taken exactly, checking theta, once a block. Recorded rows are kept in
numpy blocks, whose distances to theta0 and potentials are evaluated a
block at a time with each row's own bits; observers see each block with its
thetas, so a check can run with the descent and keep no theta history. A
single run is strictly sequential; independent runs may execute concurrently
and finished trajectories are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice
from typing import Callable, Iterable, TextIO

import numpy as np

from .geometry import probe_points
from .models import GLMModel, Model, vector_norm

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
# A CSV row, and one whose NaN sgd_potential (column 7) prints as an empty field.
_CSV_ROW = ",".join(["%.17g"] * len(_COLUMNS)) + "\n"
_CSV_BLANK_ROW = ",".join(["%.17g"] * 7 + [""] + ["%.17g"] * 2) + "\n"
_BLOCK_ROWS = 64  # recorded rows a block, and GLM SGD steps between exact X theta


@dataclass(frozen=True)
class OptimConfig:
    """Loop controls shared by all descent runs.

    tol_misfit stops a run once ||f(theta) - y|| falls to the tolerance;
    record_every thins trajectory storage (potential checks over recorded
    rows are then stride-dependent). record_thetas keeps every recorded theta
    (rows x p floats) for library callers; the CLI's checks observe the run's
    blocks instead. potential_zeta weights the path-length term of the
    recorded descent potential.
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
    record_thetas and is not part of the CSV schema, nor is ``theta0``, the
    start, which every run keeps (None in a trajectory read from CSV).
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
    theta0: Array | None = field(default=None, repr=False)

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
        # Format a block of rows at a time, so the values held at once stay small
        # next to the trajectory itself; "%.17g" % x is f"{x:.17g}", bit for bit.
        for first in range(0, len(self), _CSV_BLOCK_ROWS):
            rows = zip(*(getattr(self, name)[first:first + _CSV_BLOCK_ROWS].tolist()
                         for _, name in _COLUMNS))
            stream.writelines(_CSV_BLANK_ROW % (row[:7] + row[8:]) if math.isnan(row[7])
                              else _CSV_ROW % row for row in rows)
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
    fields = {name: np.asarray(values, dtype=float) for (_, name), values in zip(_COLUMNS, columns)}
    fields["iters"] = fields["iters"].astype(int)
    return fields


class _Rows:
    """A run's recorded rows: scalars and theta go into a block of _BLOCK_ROWS rows,
    whose dist_init and potential columns are evaluated when it fills and at the end;
    then observe(iters, thetas, misfits, dist_init) of each observer (thetas is reused)."""

    def __init__(self, start: Array, potential, anchored, keep_thetas: bool, observers=()):
        self.start, self.potential, self.anchored = start, potential, anchored
        self.keep_thetas, self.observers = keep_thetas, observers
        self.scalars = np.empty((5, _BLOCK_ROWS))  # iter, loss, misfit, path_len, step_norm
        self.thetas = np.empty((_BLOCK_ROWS, start.size))
        self.count = 0
        self.blocks: list[Array] = []  # (8, rows): iter through sgd_potential
        self.theta_blocks: list[Array] = []

    def add(self, scalars: Array, thetas: Array) -> None:
        """Append rows: their (5, rows) scalars, iter through step_norm, and thetas."""
        while len(thetas):
            take = min(_BLOCK_ROWS - self.count, len(thetas))
            end = self.count + take
            self.scalars[:, self.count:end] = scalars[:, :take]
            self.thetas[self.count:end] = thetas[:take]
            scalars, thetas, self.count = scalars[:, take:], thetas[take:], end
            if end == _BLOCK_ROWS:
                self.flush()

    def flush(self) -> None:
        if self.count == 0:
            return
        iters, loss, misfit, path_len, step_norm = self.scalars[:, :self.count]
        thetas = self.thetas[:self.count]
        D = thetas - self.start
        sq = np.vecdot(D, D)
        dist = np.sqrt(sq)  # each row's vector_norm, bit for bit
        sgd = np.full(self.count, math.nan) if self.anchored is None \
            else self.anchored(D, sq, misfit)
        self.blocks.append(np.stack([iters, loss, misfit, dist, path_len, step_norm,
                                     self.potential(dist, misfit, path_len), sgd]))
        for observe in self.observers:
            observe(iters, thetas, misfit, dist)
        if self.keep_thetas:
            self.theta_blocks.append(thetas)
            self.thetas = np.empty_like(self.thetas)
        self.count = 0

    def columns(self) -> tuple[Array, Array | None]:
        """The (8, rows) columns iter through sgd_potential, and the recorded thetas."""
        self.flush()
        thetas = np.concatenate(self.theta_blocks) if self.keep_thetas else None
        return np.concatenate(self.blocks, axis=1), thetas


def _descend(
    theta0: Array,
    cfg: OptimConfig,
    measure: Callable[[Array], tuple[float, float, object]],
    step: Callable[[Array, object, int], tuple | None],
    potential: Callable[[Array, Array, Array], Array],
    anchored: Callable[[Array, Array, Array], Array] | None = None,
    observers: Iterable[Callable] = (),
) -> Trajectory:
    """The loop of every run: theta advances by a block of steps at a time.

    measure(theta0) returns (loss, misfit, state), state being what the
    stepper carries from row to row (the residual at theta for the
    least-squares runs, None for a general loss, X theta for GLM SGD).
    step(theta, state, limit) takes k steps, 1 <= k <= limit, and returns
    (thetas, step_norms, losses, misfits, state): the k iterates as a (k, p)
    array, their columns as sequences and the state at the last one; or None
    where the run stops as "stationary". It measures every row but one whose
    step norm and theta are both not finite, which records loss = misfit = inf
    (a finite step norm bounds every step entry below sqrt(float max), about
    1.3e154, so theta can overflow only from an entry already that close to
    the float64 maximum). The loop cuts a block at its first terminal row: a
    non-finite loss ends the run as "non_finite" with abort_iter set (overflow
    raises no warning), misfit <= tol_misfit as "tol", iteration max_iters as
    "max_iters". It keeps the rows due under record_every and the last one;
    path_len adds up the step norms in order. A block of recorded rows gets
    its gd_potential column from potential(dist_init, misfit, path_len) and
    its sgd_potential from anchored(theta - theta0, ||theta - theta0||^2,
    misfit), each taking the block's columns (and (rows, p) offsets) and
    giving every row its own bits; then each of observers sees the block (``_Rows``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.array(theta0, dtype=float)
        loss, misfit, state = measure(start)
        misfit0 = misfit
        rows = _Rows(start, potential, anchored, cfg.record_thetas, tuple(observers))
        # The latest row's iter, loss, misfit, path_len and step_norm, and its theta.
        last, theta, tau = np.array([[0], [loss], [misfit], [0.0], [0.0]]), start, 0
        rows.add(last, start[None])
        termination = "tol" if misfit <= cfg.tol_misfit else None
        while termination is None:
            moved = step(theta, state, cfg.max_iters - tau)
            if moved is None:
                if tau % cfg.record_every:  # else row tau is recorded already
                    rows.add(last, theta[None])
                termination = "stationary"
                break
            thetas, norms, losses, misfits, state = moved
            for cut, (loss, misfit) in enumerate(zip(losses, misfits), 1):
                if not math.isfinite(loss) or misfit <= cfg.tol_misfit:
                    termination = "tol" if math.isfinite(loss) else "non_finite"
                    break
            if termination is None and tau + cut == cfg.max_iters:
                termination = "max_iters"
            paths = list(accumulate(norms[:cut], initial=last[3, 0]))[1:]
            block = np.array([range(tau + 1, tau + cut + 1), losses[:cut], misfits[:cut],
                              paths, norms[:cut]])
            due = slice((-tau - 1) % cfg.record_every, cut, cfg.record_every)
            rows.add(block[:, due], thetas[due])
            last, theta, tau = block[:, cut - 1:], thetas[cut - 1], tau + cut
            if termination and tau % cfg.record_every:  # the last row, not due
                rows.add(last, theta[None])
        # norm_misfit and norm_dist; dividing by 1.0 leaves a column bit-for-bit unchanged.
        columns, thetas = rows.columns()
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
            abort_iter=tau if termination == "non_finite" else None,
            thetas=thetas,
            theta0=start,
        )


def _gradient_step(measure: Callable[[Array], tuple[float, float, Array | None]],
                   direction: Callable[[Array, Array | None], Array], eta: float,
                   stationary_exit: bool = True):
    """The stepper of a gradient run, one step a call: theta - eta * direction(theta, r),
    its ``vector_norm`` and measure(theta) there, r being the residual measure gave at
    theta; or None at an exactly zero direction when stationary_exit is set."""
    def step(theta: Array, r: Array | None, limit: int):
        g = direction(theta, r)
        if stationary_exit and not np.any(g):
            return None
        s = eta * g
        theta = theta - s
        step_norm = vector_norm(s)
        if math.isfinite(step_norm) or np.isfinite(theta).all():
            loss, misfit, r = measure(theta)
        else:
            loss = misfit = math.inf
        return theta[None], [step_norm], [loss], [misfit], r

    return step


def _measure_residual(model: Model, theta: Array) -> tuple[float, float, Array]:
    """(0.5 * misfit^2, misfit, residual) at theta, for the least-squares runs."""
    r = model.residual(theta)
    misfit = vector_norm(r)
    return 0.5 * misfit**2, misfit, r


def _misfit_potential(cfg: OptimConfig) -> Callable[[Array, Array, Array], Array]:
    """The least-squares runs' gd_potential: misfit + potential_zeta * path_len."""
    return lambda dist, misfit, path_len: misfit + cfg.potential_zeta * path_len


def run_gd(model: Model, theta0: Array, cfg: OptimConfig, observers=()) -> Trajectory:
    """Full-batch descent theta <- theta - eta * J^T r, deterministically.

    r is the residual already measured at theta, handed to ``model.gradient``
    so it is not computed again. Stops at the misfit tolerance, at max_iters,
    at an exactly-zero gradient ("stationary"), or when the loss turns
    non-finite ("non_finite", with the offending iteration recorded as
    abort_iter). Each of observers sees every block of recorded rows (``_Rows``).
    """
    measure = partial(_measure_residual, model)
    return _descend(theta0, cfg, measure, _gradient_step(measure, model.gradient, cfg.eta),
                    potential=_misfit_potential(cfg), observers=observers)


def sgd_index_stream(seed: int, n: int, length: int) -> Array:
    """The SGD sample indices: a pure function of (seed, step) via Philox."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, n, size=length)


def _sgd_indices(seed: int, n: int):
    """sgd_index_stream(seed, n, ...) as an iterator, drawn _BLOCK_ROWS at a time
    (the generator's values do not depend on the draw sizes)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    while True:
        yield from rng.integers(0, n, size=_BLOCK_ROWS).tolist()


def _glm_sgd(model: GLMModel, eta: float, indices):
    """(measure, step) of GLM SGD, a block of up to _BLOCK_ROWS steps a call on a
    kept z = X theta.

    A step on sample i is theta <- theta - c x_i with c = eta (phi(z_i) - y_i)
    phi'(z_i), and z follows it as z <- z - c G[i] (G = X X^T). Only that
    recurrence runs a step at a time, in O(n); the block's thetas are then one
    cumsum of the steps -c x_i from theta (the additions of theta - c x), its
    step norms |c| ||x_i||, residuals phi(z) - y and misfits one array each,
    with no forward pass. z is taken exactly as X theta (``pre_activations``,
    which checks theta) at the start and at the end of every full block, where
    theta is finite. In between, entry j of z drifts from x_j . theta by at
    most _BLOCK_ROWS * (p + 3) * eps * (max|c| ||x_j|| max||x_i|| + |x_j| . |theta|),
    eps being the float64 machine epsilon: a step adds the G entry's dot
    product error, two roundings of the update, and theta's own rounding seen
    through x_j.
    """
    X, y, act = model.X, model.y, model.act
    gram = X @ X.T
    row_norms = np.sqrt(np.vecdot(X, X))

    def measure(theta: Array) -> tuple[float, float, Array]:
        z = model.pre_activations(theta)
        misfit = vector_norm(act.phi(z) - y)
        return 0.5 * misfit**2, misfit, z

    def step(theta: Array, z: Array, limit: int):
        picks = list(islice(indices, min(limit, _BLOCK_ROWS)))
        c, Z = np.empty(len(picks)), np.empty((len(picks), len(y)))
        for t, i in enumerate(picks):
            c[t] = ct = eta * (act.phi(z[i]) - y[i]) * act.dphi(z[i])
            z = np.subtract(z, ct * gram[i], out=Z[t])
        thetas = -c[:, None] * X[picks]
        thetas[0] += theta
        np.cumsum(thetas, axis=0, out=thetas)
        norms = np.abs(c) * row_norms[picks]
        if len(picks) == _BLOCK_ROWS and np.isfinite(thetas[-1]).all():
            Z[-1] = model.pre_activations(thetas[-1])
        R = act.phi(Z) - y
        misfits = np.sqrt(np.vecdot(R, R))  # each row's vector_norm, bit for bit
        misfits[~(np.isfinite(norms) | np.isfinite(thetas).all(axis=1))] = math.inf
        return (thetas, norms.tolist(), [0.5 * m**2 for m in misfits.tolist()],
                misfits.tolist(), Z[-1])

    return measure, step


def run_sgd(
    model: Model,
    theta0: Array,
    cfg: OptimConfig,
    anchors=None,
    alpha: float | None = None,
    observers=(),
) -> Trajectory:
    """Single-sample stochastic descent with a seeded, replayable index stream.

    Each step draws gamma uniformly from {0..n-1} and applies
    theta <- theta - eta * r_gamma * J_gamma^T (no 1/n scaling); gamma is
    drawn a block at a time, not max_iters at once. A GLM (the linear model
    too) steps a block of up to 64 at a time on a kept z = X theta
    (``_glm_sgd``), a step an O(n) scalar recurrence and a row of the block's
    arrays, never calling ``predictions`` or ``per_sample_gradient``; other
    families take ``per_sample_gradient`` on a measured residual, a step a
    block. When an anchor set and alpha are supplied, the anchored potential
    12*misfit + (alpha/K) * sum_l ||theta - p_l|| is recorded per row. A
    block of rows takes its K squared distances from one centred product,
    ||t||^2 - 2 t . a_l + ||a_l||^2 with t = theta - theta0 and
    a_l = p_l - theta0: each is within
    delta_l = (p + 5) * eps * (||t|| + ||a_l||)^2 of ||theta - p_l||^2, eps
    being the float64 machine epsilon (three p-term dot products, two sums,
    and the rounding of t and a_l), so
    distance l is within min(sqrt(delta_l), delta_l / ||theta - p_l||): a
    relative rounding error away from the anchor, sqrt(delta_l) at worst,
    where theta lands on it. Identical seeds reproduce the trajectory bit
    for bit. observers see the recorded rows as in ``run_gd``.
    """
    if cfg.seed is None:
        raise ValueError("SGD requires cfg.seed")
    if anchors is not None and alpha is None:
        raise ValueError("anchored potential recording needs alpha")
    indices = _sgd_indices(cfg.seed, model.n)
    if isinstance(model, GLMModel):
        measure, step = _glm_sgd(model, cfg.eta, indices)
    else:
        # One sample's gradient can vanish at a point that is not stationary for
        # the full loss, so a zero step does not end the run.
        measure = partial(_measure_residual, model)
        step = _gradient_step(
            measure, lambda theta, r: model.per_sample_gradient(theta, next(indices), r),
            cfg.eta, stationary_exit=False)
    anchored_potential = None
    if anchors is not None:
        centred = anchors.anchors - np.asarray(theta0, dtype=float)
        centred_sq = np.vecdot(centred, centred)

        def anchored_potential(offsets: Array, sq: Array, misfits: Array) -> Array:
            dist_sq = sq[:, None] - 2.0 * (offsets @ centred.T) + centred_sq
            dists = np.sqrt(np.maximum(dist_sq, 0.0)).sum(axis=1)
            return 12.0 * misfits + (alpha / anchors.K) * dists

    return _descend(theta0, cfg, measure, step, potential=_misfit_potential(cfg),
                    anchored=anchored_potential, observers=observers)


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
        theta0, cfg, loss_fn.measure, _gradient_step(loss_fn.measure, loss_fn.direction, cfg.eta),
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
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
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
