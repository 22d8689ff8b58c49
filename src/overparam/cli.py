"""Command-line front end: run pipelines, verification, and experiment drivers.

Exit code contract: 0 all enabled checks pass, 1 a bound check failed or the
geometry could not be certified, 2 configuration error, 3 capacity or IO
error, 4 internal error (any other exception, reported with its traceback
on stderr). Output files land in --out, else the config's output.dir, else
$OVERPARAM_OUT_DIR, else the cwd. A command writes them, and echoes its
report, only after all its work (`_write_outputs`), so a command refused or
stopped by an error leaves no output directory; a file standing on the
output path is refused before any work.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
import threading
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bounds as bnd
from .config import ConfigError, RunConfig, apply_overrides, config_to_text, load_config
from .descent import (
    OptimConfig,
    Trajectory,
    default_tolerance,
    local_pl_check,
    model_loss,
    run_gd,
    run_pl_gd,
    run_sgd,
)
from .geometry import (
    CertificationError,
    SpectrumBounds,
    _dense_slack,
    _require_alpha,
    check_pair_budget,
    check_probeable,
    gd_plan,
    probe_spectrum,
    sgd_plan,
    verify_assumptions,
)
from .models import (
    ACTIVATIONS,
    GLMModel,
    LinearModel,
    LowRankModel,
    Model,
    ShallowNetModel,
)
from .oracle import CapacityError, lowrank_init
from .potentials import (
    AnchorSet,
    DriftStream,
    PackingInfeasibleError,
    build_packing,
    default_anchor_count,
    in_working_ball,
    neighborhood_monitor,
    save_packing,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

_PROBE_SEED_OFFSET = 1009
_PACKING_SEED_OFFSET = 7717
_TUNE_PROBE_ITERS = 10
_TUNE_MAX_HALVINGS = 60

Array = np.ndarray


# ---------------------------------------------------------------------------
# Instance construction from a RunConfig
# ---------------------------------------------------------------------------

def lowrank_instances(sizes: Sequence[int], seed: int, d: int = 100,
                      r: int = 4) -> list[tuple[LowRankModel, Array]]:
    """Synthetic low-rank regressions, Gaussian features and Rademacher labels, one per
    size with the bits of its own default_rng(seed) draw. The features are drawn once, in
    row blocks ending at each size, and each model takes a prefix view; a size's labels
    come from a copy of the generator at its boundary."""
    rng = np.random.default_rng(seed)
    Xs = np.empty((max(sizes), d, d))
    instances, lo = {}, 0
    for n in sorted(set(sizes)):
        rng.standard_normal(out=Xs[lo:n])
        y = copy.deepcopy(rng).integers(0, 2, size=n) * 2.0 - 1.0
        instances[n] = (LowRankModel(Xs[:n], y, d, r),
                        lowrank_init(d, r, n, float(np.linalg.norm(y)), seed=seed))
        lo = n
    return [instances[n] for n in sizes]


def build_model(cfg: RunConfig) -> tuple[Model, Array]:
    """Instantiate the configured model family (checked at load) and its starting parameter."""
    rng = np.random.default_rng(cfg.data_seed)
    family = cfg.family
    if family in ("linear", "glm"):
        n, p = cfg.n, cfg.p
        if cfg.identity_X:
            X = np.eye(n, p)
            y = np.zeros(n)
            theta0 = np.ones(p)
        else:
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            theta0 = rng.standard_normal(p) / math.sqrt(p)
        if family == "linear":
            return LinearModel(X, y), theta0
        return GLMModel(X, y, ACTIVATIONS[cfg.activation](cfg.activation_scale)), theta0
    if family == "lowrank":
        return lowrank_instances([cfg.n], cfg.data_seed, cfg.d, cfg.r)[0]
    # Only the net family is left.
    n, d, k = cfg.n, cfg.d, cfg.k
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    v = rng.standard_normal(k)
    v /= np.linalg.norm(v)
    W0 = rng.standard_normal((k, d)) / math.sqrt(d)
    act = ACTIVATIONS[cfg.activation](cfg.activation_scale)
    return ShallowNetModel(X, y, v, act), W0.reshape(-1)


def glm_step_size(model: GLMModel) -> float:
    """The generalized-linear step size 1 / (Gamma^2 ||X||^2)."""
    spec_norm = float(np.linalg.norm(model.X, 2))
    return 1.0 / (model.act.big_gamma**2 * spec_norm**2)


def net_step_size(model: ShallowNetModel, theta0: Array) -> float:
    """The shallow-net step size derived from the data matrix and activation."""
    sv = np.linalg.svd(model.X, compute_uv=False)
    spec_norm, smin = float(sv[0]), float(sv[-1])
    row_max = float(np.max(np.linalg.norm(model.X, axis=1)))
    act = model.act
    r0 = model.misfit(theta0)
    base = 1.0 / (2.0 * act.big_gamma**2 * spec_norm**2)
    if act.curvature_m == 0.0:
        return base
    cap = (
        (act.gamma**2 / (act.big_gamma * act.curvature_m))
        * (smin**2 / (row_max * spec_norm))
        / max(r0, np.finfo(float).tiny)
    )
    return base * min(1.0, cap)


def lowrank_step_size(model: LowRankModel, c1: float) -> float:
    """c1 * sqrt(n) / (r^2 d ||y||), the low-rank regression step size."""
    return c1 * math.sqrt(model.n) / (model.r**2 * model.d * float(np.linalg.norm(model.y)))


def auto_tune_lowrank_eta(model: LowRankModel, theta0: Array) -> tuple[float, float]:
    """Backtrack c1 from 1, halving until _TUNE_PROBE_ITERS GD steps are loss-monotone.

    Gives up after _TUNE_MAX_HALVINGS halvings. Returns (eta, c1); the chosen c1
    is reported in run summaries because the step-size constant is otherwise
    unspecified.
    """
    c1 = 1.0
    for _ in range(_TUNE_MAX_HALVINGS):
        eta = lowrank_step_size(model, c1)
        traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=_TUNE_PROBE_ITERS))
        losses = traj.loss
        monotone = bool(
            np.all(np.diff(losses) <= 1e-12 * np.maximum(losses[:-1], 1.0))
        )
        if traj.termination != "non_finite" and monotone:
            return eta, c1
        c1 *= 0.5
    raise CertificationError("no monotone step size found while halving c1")


def resolve_eta(cfg: RunConfig, model: Model, theta0: Array,
                bounds: SpectrumBounds) -> tuple[float, str]:
    """Step size from the config, or the optimizer's or family's rule when set to auto."""
    if cfg.eta is not None:
        return cfg.eta, "explicit"
    if cfg.optimizer == "pl":
        if isinstance(model, LinearModel):
            return 1.0 / bounds.beta**2, "pl rule 1/L"
        return 1.0 / (2.0 * bounds.beta**2), "pl rule 1/(2 beta^2)"
    if cfg.optimizer == "sgd":
        plan = sgd_plan(bounds, model.misfit(theta0), nu=cfg.nu, regime=cfg.regime)
        return plan.eta, "sgd plan"
    # LinearModel is a GLMModel, so its rule must come first; its X (identity
    # or Gaussian) is non-zero.
    if isinstance(model, LinearModel):
        spec_norm = float(np.linalg.norm(model.X, 2))
        return 1.0 / (2.0 * spec_norm**2), "linear rule 1/(2 ||X||^2)"
    if isinstance(model, GLMModel):
        return glm_step_size(model), "glm rule 1/(Gamma^2 ||X||^2)"
    if isinstance(model, ShallowNetModel):
        return net_step_size(model, theta0), "net rule"
    # Only the low-rank family is left.
    eta, c1 = auto_tune_lowrank_eta(model, theta0)
    return eta, f"lowrank rule, backtracked c1={c1:g}"


def auto_probe_radius(cfg: RunConfig, model: Model, theta0: Array, misfit0: float) -> float:
    """Default probe ball: the plan radius scale 4 (or nu) * misfit0 / alpha(theta0)."""
    if cfg.probe_radius is not None:
        return cfg.probe_radius
    J = model.jacobian(theta0)
    alpha0 = float(np.linalg.svd(J, compute_uv=False)[-1])
    scale = cfg.nu if cfg.optimizer == "sgd" else 4.0
    if alpha0 <= _dense_slack(model.n, model.p, float(np.vdot(J, J))) or misfit0 == 0.0:
        return 0.1 * (1.0 + float(np.linalg.norm(theta0)))
    return scale * misfit0 / alpha0


def prepare(cfg: RunConfig) -> tuple[Model, Array, float, SpectrumBounds]:
    """Build the configured instance and probe its Jacobian spectrum around theta0."""
    model, theta0 = build_model(cfg)
    check_probeable(model)
    misfit0 = model.misfit(theta0)
    radius = auto_probe_radius(cfg, model, theta0, misfit0)
    bounds = probe_spectrum(
        model, theta0, radius, samples=cfg.probe_samples,
        seed=cfg.data_seed + _PROBE_SEED_OFFSET,
    )
    return model, theta0, misfit0, bounds


def anchor_packing(cfg: RunConfig, model: Model, theta0: Array, misfit0: float,
                   bounds: SpectrumBounds) -> AnchorSet:
    """The anchor packing around theta0, sized from the probed alpha and beta."""
    K = cfg.anchor_count
    if K is None:
        K = default_anchor_count(model.n, bounds.beta, bounds.alpha)
    return build_packing(
        theta0,
        radius_Rp=1.25 * (bounds.beta / bounds.alpha) ** (1.0 / model.p)
        * misfit0 / bounds.alpha,
        epsilon=misfit0 / bounds.alpha,
        K=K,
        seed=cfg.data_seed + _PACKING_SEED_OFFSET,
    )


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def run_lowrank_study(sizes: Sequence[int], seed: int,
                      iters: int = 200) -> list[tuple[Trajectory, float, float]]:
    """(trajectory, eta, c1) of the low-rank study at each size, from one shared draw
    (``lowrank_instances``). This thread and one other take the sizes largest first; if
    any fails, the smallest failing size's exception is raised once both are done."""
    instances = lowrank_instances(sizes, seed)
    ascending = sorted(range(len(sizes)), key=sizes.__getitem__)
    todo, results = iter(ascending[::-1]), {}

    def work() -> None:
        for k in todo:  # the shared iterator hands each size to one thread
            model, theta0 = instances[k]
            try:
                eta, c1 = auto_tune_lowrank_eta(model, theta0)
                results[k] = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=iters)), eta, c1
            except Exception as exc:  # raised on the calling thread below
                results[k] = exc

    helper = threading.Thread(target=work, daemon=True)
    helper.start()
    work()
    helper.join()
    for k in ascending:
        if isinstance(results[k], Exception):
            raise results[k]
    return [results[k] for k in range(len(sizes))]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _load_with_overrides(args, reads_nu: bool = False) -> RunConfig:
    """The config with its overrides and flags applied. diag.nu is checked here,
    before any model is built, when the command reads it: an sgd run (its probe
    radius and plan), or `reads_nu` (verify prints the sgd plan in any case)."""
    cfg = load_config(args.config)
    overrides: dict[str, str] = {}
    for item in args.override:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    # A flag's dest is its config key (see _FLAG_KEYS); flags win over overrides.
    overrides.update((key, value) for key, value in vars(args).items()
                     if "." in key and value is not None)
    cfg = apply_overrides(cfg, overrides)
    if (reads_nu or cfg.optimizer == "sgd") and not (math.isfinite(cfg.nu) and cfg.nu >= 3.0):
        raise ConfigError(f"diag.nu must be a finite number >= 3, got {cfg.nu!r}")
    return cfg


def _out_dir(args, cfg: RunConfig | None = None) -> Path:
    """--out, else the config's output.dir, else $OVERPARAM_OUT_DIR, else the cwd.

    Nothing is made here unless a file stands on the path (the directory
    itself or a parent): then mkdir runs at once, and its error refuses the
    command before any work.
    """
    out = Path(args.out or (cfg and cfg.out_dir) or os.environ.get("OVERPARAM_OUT_DIR")
               or Path.cwd())
    if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write_outputs(out: Path, name: str, text: str, quiet: bool,
                   files: dict[str, Callable[[Path], None]]) -> None:
    """Make out, call each writer in files with out / its file name in order,
    write the report text to out / name, and echo it unless quiet."""
    out.mkdir(parents=True, exist_ok=True)
    for file_name, write in files.items():
        write(out / file_name)
    (out / name).write_text(text, encoding="utf-8")
    if not quiet:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    out = _out_dir(args, cfg)
    model, theta0, misfit0, bounds = prepare(cfg)
    tol = default_tolerance(model.y) if cfg.tol is None else cfg.tol
    eta, eta_note = resolve_eta(cfg, model, theta0, bounds)

    summary: list[str] = []
    summary.append("# run summary")
    summary.append(config_to_text(cfg).rstrip("\n"))
    summary.append(
        f"probed: alpha={bounds.alpha:.10g} beta={bounds.beta:.10g} "
        f"B={bounds.row_bound_B:.10g} L={bounds.lipschitz_L:.10g} "
        f"probes={bounds.probe_count} radius={bounds.radius:.10g}"
    )
    summary.append(f"eta={eta:.17g} ({eta_note}) tol={tol:.10g} misfit0={misfit0:.17g}")

    report = bnd.BoundReport()
    anchors = None
    opt = cfg.optimizer
    if opt == "gd":
        plan = gd_plan(bounds, misfit0, cfg.regime, cfg.lam, eta=eta)
        certified = eta <= plan.eta
        if not certified:
            summary.append(
                f"warning: run step size {eta:.6g} exceeds the certified cap "
                f"{plan.eta:.6g}; envelope checks use the certified plan and "
                "the per-step potential check is skipped"
            )
        summary.append(
            f"plan: radius_R={plan.radius_R:.10g} eta={plan.eta:.10g} "
            f"rate={plan.rate:.10g} zeta={plan.zeta:.10g} regime={plan.regime}"
        )
        theta_star = glm_terms = None
        if isinstance(model, GLMModel):
            try:
                theta_star = bnd.closest_optimum_glm(model, theta0)
            except ValueError as exc:
                summary.append(f"closest-optimum oracle unavailable: {exc}")
            else:
                glm_terms = bnd.GLMTheoremTerms(model, theta_star, eta)
        run_cfg = OptimConfig(
            eta=eta, max_iters=cfg.iters, tol_misfit=tol, record_every=cfg.record_every,
            potential_zeta=plan.zeta,
        )
        traj = run_gd(model, theta0, run_cfg, observers=[glm_terms] if glm_terms else ())
        report.extend(bnd.check_gd_theorem(traj, plan, bounds, theta_star=theta_star,
                                           include_potential=certified))
        report.extend(bnd.check_lower_bound(traj, bounds.beta))
        if glm_terms is not None:
            report.extend(glm_terms.report(traj))
    elif opt == "sgd":
        plan = sgd_plan(bounds, misfit0, nu=cfg.nu, regime=cfg.regime, eta=eta)
        if eta > plan.eta:
            summary.append(
                f"warning: run step size {eta:.6g} exceeds the certified cap "
                f"{plan.eta:.6g}; the plan below is the certified one, not this run's"
            )
        summary.append(
            f"plan: radius_R={plan.radius_R:.10g} eta={plan.eta:.10g} "
            f"rate={plan.rate:.10g} nu={plan.nu:g} fail_prob={plan.fail_prob:.10g}"
        )
        if cfg.anchors:
            anchors = anchor_packing(cfg, model, theta0, misfit0, bounds)
            summary.append(f"anchors: K={anchors.K} epsilon={anchors.epsilon:.10g} "
                           f"radius={anchors.radius_Rp:.10g}")
        run_cfg = OptimConfig(
            eta=eta, max_iters=cfg.iters, tol_misfit=tol, seed=cfg.opt_seed,
            record_every=cfg.record_every,
        )
        traj = run_sgd(model, theta0, run_cfg, anchors=anchors, alpha=bounds.alpha)
        report.extend(bnd.check_lower_bound(traj, bounds.beta))
        if cfg.record_every == 1:
            monitor = neighborhood_monitor(traj, plan, bounds.alpha)
            summary.append(monitor.to_text())
    else:  # pl
        _require_alpha(bounds)
        mu = bounds.alpha**2
        smooth_L = bounds.beta**2 if isinstance(model, LinearModel) else None
        loss_fn = model_loss(model, smooth_L)
        loss0 = model.loss(theta0)
        pl_radius = math.sqrt(8.0 * loss0 / mu) if loss0 > 0 else bounds.radius
        pl_report = local_pl_check(loss_fn, theta0, pl_radius, mu,
                                   samples=cfg.probe_samples,
                                   seed=cfg.data_seed + _PROBE_SEED_OFFSET)
        summary.append(pl_report.to_text())
        run_cfg = OptimConfig(
            eta=eta, max_iters=cfg.iters, tol_misfit=math.sqrt(2.0 * tol),
            record_every=cfg.record_every,
        )
        traj = run_pl_gd(loss_fn, theta0, run_cfg, mu)
        report.extend(bnd.check_pl_theorems(traj, mu, smooth_L, loss0))

    if traj.termination == "non_finite":  # a diverged run fails whatever its envelopes say
        report.add("finite_iterates", "run", math.inf, 0.0,
                   note=f"the loss or theta overflowed; abort_iter={traj.abort_iter}")
    summary.append(f"termination: {traj.termination} after {int(traj.iters[-1])} iterations")
    summary.append(report.to_text())

    files = {"trajectory.csv": traj.save, "bounds.csv": report.save}
    if anchors is not None:
        files["anchors.txt"] = partial(save_packing, anchors)
    _write_outputs(out, "summary.txt", "\n".join(summary) + "\n", args.quiet, files)
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def cmd_verify(args) -> int:
    cfg = _load_with_overrides(args, reads_nu=True)
    out = _out_dir(args, cfg)
    samples = max(8, cfg.probe_samples // 2)
    check_pair_budget(samples + 1)  # verify_assumptions' own refusal, before the probe draws
    model, theta0, misfit0, bounds = prepare(cfg)
    assumptions = verify_assumptions(
        model, bounds, lam=cfg.lam, samples=samples,
        seed=cfg.data_seed + _PROBE_SEED_OFFSET + 1,
    )
    lines = [assumptions.to_text(), ""]
    block = {
        "alpha": bounds.alpha,
        "beta": bounds.beta,
        "B": bounds.row_bound_B,
        "L": bounds.lipschitz_L,
        "radius": bounds.radius,
        "probes": bounds.probe_count,
        "misfit0": misfit0,
    }
    try:
        plan = gd_plan(bounds, misfit0, cfg.regime, cfg.lam)
        block.update(gd_radius_R=plan.radius_R, gd_eta=plan.eta, gd_rate=plan.rate,
                     gd_zeta=plan.zeta)
        splan = sgd_plan(bounds, misfit0, nu=cfg.nu, regime=cfg.regime)
        block.update(sgd_radius_R=splan.radius_R, sgd_eta=splan.eta, sgd_rate=splan.rate,
                     sgd_fail_prob=splan.fail_prob)
    except CertificationError as exc:
        lines.append(f"plan unavailable: {exc}")
    for key, value in block.items():
        lines.append(f"{key}={value:.17g}" if isinstance(value, float) else f"{key}={value}")
    _write_outputs(out, "verify.txt", "\n".join(lines) + "\n", args.quiet, {})
    ok = assumptions.bounded_ok if cfg.regime == "bounded" else assumptions.smooth_ok
    return EXIT_OK if ok else EXIT_VIOLATION


def _number_flag(args, name: str, kind: type, low: float, inclusive: bool = True):
    """The value of --<name> as int or float, finite and >= low (> low when not
    inclusive), else a ConfigError naming the flag; checked before any work."""
    raw = getattr(args, name)
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        value = None
    bound = f"{'>=' if inclusive else '>'} {low:g}"
    noun = "an integer" if kind is int else "a finite number"
    if value is None or not math.isfinite(value):
        raise ConfigError(f"--{name} must be {noun} {bound}, got {raw!r}")
    if value < low or (value == low and not inclusive):
        raise ConfigError(f"--{name} must be {bound}, got {value:g}")
    return value


def cmd_lower_bound(args) -> int:
    try:
        eta = None if args.eta in (None, "auto") else float(args.eta)
    except ValueError:
        eta = math.nan
    if eta is not None and not (math.isfinite(eta) and eta > 0.0):
        raise ConfigError(f"--eta must be a finite number > 0 or 'auto', got {args.eta!r}")
    alpha = _number_flag(args, "alpha", float, 0.0, inclusive=False)
    beta = _number_flag(args, "beta", float, 0.0, inclusive=False)
    if beta < alpha:
        raise ConfigError(f"--beta must be >= --alpha, got alpha={alpha:g}, beta={beta:g}")
    p = _number_flag(args, "p", int, 2)
    iters = _number_flag(args, "iters", int, 1)
    out = _out_dir(args)
    model, theta0 = bnd.make_lower_bound_instance(alpha, beta, p, args.mode)
    if eta is None:
        eta = 0.5 / beta**2
    traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=iters))
    coefficient = bnd.tight_line_coefficient(alpha, beta, args.mode)
    (line,) = bnd.check_tight_line(traj, coefficient).rows
    text = (
        f"alpha={alpha:g} beta={beta:g} p={p} mode={args.mode}\n"
        f"max deviation from the tradeoff line: {line.max_violation:.17g} "
        f"(tolerance {line.tolerance:.6g})\n"
    )
    _write_outputs(out, f"lower_bound_{args.mode}_report.txt", text, args.quiet,
                   {f"lower_bound_{args.mode}.csv": traj.save})
    return EXIT_OK if line.passed else EXIT_VIOLATION


def cmd_experiment_lowrank(args) -> int:
    try:
        sizes = [25, 50, 100, 200] if args.n == "all" else [int(args.n)]
    except ValueError:
        sizes = [None]
    if any(n not in (25, 50, 100, 200) for n in sizes):
        raise ConfigError("experiment-lowrank supports n in {25, 50, 100, 200}")
    seed = _number_flag(args, "seed", int, 0)
    iters = _number_flag(args, "iters", int, 1)
    out = _out_dir(args)
    lines, files = [], {}
    for n, (traj, eta, c1) in zip(sizes, run_lowrank_study(sizes, seed, iters=iters)):
        files[f"lowrank_n{n}_seed{seed}.csv"] = traj.save
        lines.append(
            f"n={n} seed={seed} c1={c1:.17g} eta={eta:.17g} "
            f"final_norm_misfit={traj.norm_misfit[-1]:.10g} "
            f"final_norm_dist={traj.norm_dist[-1]:.10g}"
        )
    _write_outputs(out, f"lowrank_summary_seed{seed}.txt", "\n".join(lines) + "\n",
                   args.quiet, files)
    return EXIT_OK


def cmd_sgd_martingale(args) -> int:
    cfg = _load_with_overrides(args)
    if cfg.optimizer != "sgd":
        raise ConfigError("sgd-martingale needs optimizer.kind = sgd")
    out = _out_dir(args, cfg)
    model, theta0, misfit0, bounds = prepare(cfg)
    plan = sgd_plan(bounds, misfit0, nu=cfg.nu, regime=cfg.regime, eta=cfg.eta)
    anchors = anchor_packing(cfg, model, theta0, misfit0, bounds)

    def half_ball(dist: Array, misfit: Array) -> Array:
        return in_working_ball(dist, misfit, plan.nu / 2.0, misfit0, bounds.alpha)

    # The drifts at the states inside the half ball, taken as the run records them.
    stream = DriftStream(model, plan.eta, anchors, bounds.alpha)
    run_cfg = OptimConfig(eta=plan.eta, max_iters=cfg.iters, seed=cfg.opt_seed)
    traj = run_sgd(model, theta0, run_cfg, observers=[
        lambda iters, thetas, misfits, dists: stream.add(thetas[half_ball(dists, misfits)])])
    inside, drifts = np.flatnonzero(half_ball(traj.dist_init, traj.misfit)), stream.drifts()
    iters = traj.iters.tolist()
    rows = ["iter,in_half_ball,drift_misfit,drift_dist,drift_potential\n",
            *("%d,0,,,\n" % it for it in iters)]
    for idx, drift in zip(inside.tolist(), drifts.tolist()):
        rows[idx + 1] = "%d,1,%.17g,%.17g,%.17g\n" % (iters[idx], *drift)
    checked = len(drifts)
    worst = max([-math.inf, *drifts[:, 2].tolist()])
    text = (
        f"checked {checked}/{len(traj.iters)} states inside the half ball; "
        f"max potential drift {worst:.17g} (tolerance 1e-12)\n"
    )
    if cfg.eta is not None and cfg.eta > plan.eta:
        text += (f"requested step size {cfg.eta:.17g} exceeds the certified cap; "
                 f"ran at the cap {plan.eta:.17g}\n")
    _write_outputs(out, "martingale_summary.txt", text, args.quiet, {
        "anchors.txt": partial(save_packing, anchors),
        "martingale.csv": lambda path: path.write_text("".join(rows), encoding="utf-8",
                                                       newline="\n"),
    })
    return EXIT_OK if checked > 0 and worst <= 1e-12 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# (flag, config key): each flag is an alias of its key, parsed and checked with it.
_FLAG_KEYS = (("--seed", "optimizer.seed"), ("--iters", "optimizer.iters"),
              ("--eta", "optimizer.eta"), ("--nu", "diag.nu"), ("--lambda", "diag.lambda"))


def _add_common(sub: argparse.ArgumentParser, with_config: bool = True) -> None:
    if with_config:
        sub.add_argument("--config", required=True, help="path to a key=value config file")
        sub.add_argument("override", nargs="*", default=[],
                         help="inline config overrides, key=value")
        for flag, key in _FLAG_KEYS:
            sub.add_argument(flag, dest=key, metavar=flag[2:].upper(), help=f"sets {key}")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout reporting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overparam",
        description="Descent-trajectory diagnostics for overparameterized least squares",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a configured experiment and check its bounds")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    verify = subs.add_parser("verify", help="probe the local geometry and print the plan")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)

    lower = subs.add_parser("lower-bound", help="build and run an adversarial instance")
    lower.add_argument("--alpha", required=True)
    lower.add_argument("--beta", required=True)
    lower.add_argument("--p", default=2)
    lower.add_argument("--mode", choices=("tight-upper", "tight-lower"),
                       default="tight-upper")
    lower.add_argument("--iters", default=10_000)
    lower.add_argument("--eta", default=None, help="step size (default 0.5/beta^2)")
    _add_common(lower, with_config=False)
    lower.set_defaults(func=cmd_lower_bound)

    exp = subs.add_parser("experiment-lowrank", help="run the low-rank trajectory study")
    exp.add_argument("--n", default="all", help="sample count in {25,50,100,200} or 'all'")
    exp.add_argument("--seed", default=0)
    exp.add_argument("--iters", default=200)
    _add_common(exp, with_config=False)
    exp.set_defaults(func=cmd_experiment_lowrank)

    mart = subs.add_parser("sgd-martingale",
                           help="exact conditional potential drift along an SGD run")
    _add_common(mart)
    mart.set_defaults(func=cmd_sgd_martingale)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except CertificationError as exc:
        sys.stderr.write(f"certification failure: {exc}\n")
        return EXIT_VIOLATION
    except (CapacityError, PackingInfeasibleError) as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY
    except ValueError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_CAPACITY
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc}\n{traceback.format_exc()}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
