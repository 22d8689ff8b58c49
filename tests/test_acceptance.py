"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v` (or `-s` to see the printed
lines). Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import overparam as op
from overparam.bounds import (
    check_pl_theorems,
    closest_optimum_glm,
    make_lower_bound_instance,
    sgd_run_survives,
)
from overparam.cli import net_step_size, run_lowrank_study
from overparam.descent import GeneralLoss, OptimConfig, run_gd, run_pl_gd, run_sgd
from overparam.geometry import gd_plan, probe_spectrum, verify_assumptions
from overparam.models import (
    GLMModel,
    LinearModel,
    LowRankModel,
    ShallowNetModel,
    tanh_linear,
)
from overparam.oracle import fd_jacobian, lowrank_init
from overparam.potentials import (
    build_packing,
    default_anchor_count,
    exact_conditional_drift,
    in_working_ball,
)

from conftest import model_zoo


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


# -- shared SGD instance (criteria 6, 7) ------------------------------------

SGD_ALPHA, SGD_BETA, SGD_B, SGD_NU = 1.0, 2.0, 2.0, 8.0
SGD_ETA = SGD_ALPHA**2 / (SGD_NU * SGD_BETA**2 * SGD_B**2)  # 1/128


def sgd_instance():
    return LinearModel(np.diag([1.0, 2.0]), np.array([0.0, 4.0])), np.zeros(2)


def sgd_packing(misfit0: float):
    K = default_anchor_count(2, SGD_BETA, SGD_ALPHA)  # ceil(2 sqrt 2) = 3
    return build_packing(
        np.zeros(2),
        radius_Rp=1.25 * (SGD_BETA / SGD_ALPHA) ** 0.5 * misfit0 / SGD_ALPHA,
        epsilon=misfit0 / SGD_ALPHA,
        K=K,
        seed=5,
    )


def test_criterion_01_jacobian_correctness():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        for name, (model, theta) in model_zoo(seed).items():
            J = model.jacobian(theta)
            J_fd = fd_jacobian(model, theta)
            rel = np.linalg.norm(J - J_fd) / (1.0 + np.linalg.norm(J))
            worst = max(worst, rel)
    elapsed = time.time() - start
    report(1, "jacobian matches central differences", worst <= 1e-5 and elapsed < 10.0,
           f"worst rel err {worst:.3g}, {elapsed:.1f}s")


def test_criterion_02_glm_convergence():
    start = time.time()
    act = tanh_linear(0.3)
    worst_slack = math.inf
    worst_final = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 50))
        y = rng.standard_normal(20)
        model = GLMModel(X, y, act)
        theta0 = rng.standard_normal(50) / math.sqrt(50)
        theta_star = closest_optimum_glm(model, theta0)
        spec = float(np.linalg.norm(X, 2))
        eta = 1.0 / (act.big_gamma**2 * spec**2)
        traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=2000,
                                                 record_thetas=True))
        lam_min = float(np.linalg.svd(X, compute_uv=False)[-1] ** 2)
        rate = 1.0 - eta * act.gamma**2 * lam_min
        d0 = float(np.linalg.norm(theta0 - theta_star))
        dists = np.linalg.norm(traj.thetas - theta_star[None, :], axis=1)
        envelope = rate ** traj.iters.astype(float) * d0
        worst_slack = min(worst_slack, float(np.min(envelope - dists)))
        worst_final = max(worst_final, float(dists[-1] / d0))
    elapsed = time.time() - start
    ok = worst_slack >= -1e-9 and worst_final <= 1e-6 and elapsed < 30.0
    report(2, "glm distance-to-optimum envelope", ok,
           f"min slack {worst_slack:.3g}, final ratio {worst_final:.3g}, {elapsed:.1f}s")


def test_criterion_03_lower_bound_equality():
    start = time.time()
    worst = 0.0
    for alpha, beta in [(1.0, 2.0), (1.0, 10.0), (3.0, 3.0)]:
        model, theta0 = make_lower_bound_instance(alpha, beta, p=2, mode="tight-upper")
        traj = run_gd(model, theta0, OptimConfig(eta=0.5 / beta**2, max_iters=10_000))
        deviation = np.max(np.abs(traj.misfit + beta * traj.dist_init - traj.misfit0))
        worst = max(worst, float(deviation / traj.misfit0))
    elapsed = time.time() - start
    report(3, "tight-upper construction stays on the line",
           worst <= 1e-8 and elapsed < 5.0, f"worst rel dev {worst:.3g}, {elapsed:.1f}s")


def shipped_trajectories():
    """One representative recorded run per model family plus the adversarial runs."""
    runs = []
    act = tanh_linear(0.3)

    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 8))
    lin = LinearModel(X, rng.standard_normal(4))
    th0 = rng.standard_normal(8)
    eta = 0.5 / np.linalg.norm(X, 2) ** 2
    runs.append(("linear", lin, th0,
                 run_gd(lin, th0, OptimConfig(eta=eta, max_iters=400, record_thetas=True))))

    rng = np.random.default_rng(1)
    Xg = rng.standard_normal((6, 24))
    glm = GLMModel(Xg, rng.standard_normal(6), act)
    thg = rng.standard_normal(24) * 0.2
    eta = 1.0 / (act.big_gamma**2 * np.linalg.norm(Xg, 2) ** 2)
    runs.append(("glm", glm, thg,
                 run_gd(glm, thg, OptimConfig(eta=eta, max_iters=600, record_thetas=True))))

    rng = np.random.default_rng(2)
    d, r, n = 20, 2, 10
    Xs = rng.standard_normal((n, d, d))
    yl = rng.integers(0, 2, n) * 2.0 - 1.0
    low = LowRankModel(Xs, yl, d, r)
    thl = lowrank_init(d, r, n, float(np.linalg.norm(yl)), seed=2)
    eta = math.sqrt(n) / (r**2 * d * float(np.linalg.norm(yl)))
    runs.append(("lowrank", low, thl,
                 run_gd(low, thl, OptimConfig(eta=eta, max_iters=400, record_thetas=True))))

    rng = np.random.default_rng(3)
    nn, dd, kk = 6, 16, 4
    Xn = rng.standard_normal((nn, dd))
    v = rng.standard_normal(kk)
    v /= np.linalg.norm(v)
    net = ShallowNetModel(Xn, rng.standard_normal(nn), v, act)
    thn = rng.standard_normal(kk * dd) / math.sqrt(dd)
    eta = net_step_size(net, thn)
    runs.append(("net", net, thn,
                 run_gd(net, thn, OptimConfig(eta=eta, max_iters=600, record_thetas=True))))

    for mode in ("tight-upper", "tight-lower"):
        m, t0 = make_lower_bound_instance(1.0, 2.0, p=2, mode=mode)
        runs.append((mode, m, t0,
                     run_gd(m, t0, OptimConfig(eta=0.125, max_iters=400,
                                               record_thetas=True))))
    return runs


def test_criterion_04_universal_lower_bound():
    worst = math.inf
    for name, model, theta0, traj in shipped_trajectories():
        samples = 24 if model.p <= 100 else 12
        radius = max(float(np.max(traj.dist_init)), 1e-3) * 1.05
        bounds = probe_spectrum(model, theta0, radius, samples=samples, seed=13,
                                trajectory_points=traj.thetas)
        slack = (traj.misfit + bounds.beta * traj.dist_init) - traj.misfit0
        worst = min(worst, float(np.min(slack / traj.misfit0)))
    report(4, "misfit + beta*distance floor on all shipped runs", worst >= -1e-9,
           f"worst normalized slack {worst:.3g}")


def test_criterion_05_gd_potential_monotone():
    results = []

    # generalized-linear instance certified in the bounded-deviation regime
    rng = np.random.default_rng(42)
    X = rng.standard_normal((8, 80))
    glm = GLMModel(X, rng.standard_normal(8), tanh_linear(0.1))
    th0 = rng.standard_normal(80) * 0.02
    mis0 = glm.misfit(th0)
    sv = np.linalg.svd(glm.jacobian(th0), compute_uv=False)
    bounds = probe_spectrum(glm, th0, 4 * mis0 / sv[-1], samples=32, seed=2)
    assumptions = verify_assumptions(glm, bounds, lam=0.5, samples=24, seed=3)
    assert assumptions.bounded_ok, "bounded-deviation must hold for this instance"
    plan = gd_plan(bounds, mis0, "bounded", 0.5)
    traj = run_gd(glm, th0, OptimConfig(eta=plan.eta, max_iters=1500))
    V = traj.misfit + plan.zeta * traj.path_len
    results.append(("glm/bounded", float(np.max(np.diff(V))), 1e-10 * V[0]))

    # low-rank instance certified in the smooth-deviation regime
    rng = np.random.default_rng(7)
    d, r, n = 20, 2, 6
    Xs = rng.standard_normal((n, d, d))
    yl = rng.integers(0, 2, n) * 2.0 - 1.0
    low = LowRankModel(Xs, yl, d, r)
    thl = lowrank_init(d, r, n, float(np.linalg.norm(yl)), seed=7)
    misl = low.misfit(thl)
    svl = np.linalg.svd(low.jacobian(thl), compute_uv=False)
    lbounds = probe_spectrum(low, thl, 4 * misl / svl[-1], samples=32, seed=8)
    lassume = verify_assumptions(low, lbounds, lam=0.5, samples=24, seed=9)
    assert lassume.smooth_ok, "smooth-deviation must hold for this instance"
    lplan = gd_plan(lbounds, misl, "smooth", 0.5)
    ltraj = run_gd(low, thl, OptimConfig(eta=lplan.eta, max_iters=1500))
    Vl = ltraj.misfit + lplan.zeta * ltraj.path_len
    results.append(("lowrank/smooth", float(np.max(np.diff(Vl))), 1e-10 * Vl[0]))

    ok = all(step <= tol for _, step, tol in results)
    detail = "; ".join(f"{name} worst step {step:.3g}" for name, step, _ in results)
    report(5, "descent potential nonincreasing under certified plans", ok, detail)


def test_criterion_06_sgd_exact_supermartingale():
    start = time.time()
    model, theta0 = sgd_instance()
    misfit0 = model.misfit(theta0)
    anchors = sgd_packing(misfit0)
    traj = run_sgd(model, theta0,
                   OptimConfig(eta=SGD_ETA, max_iters=500, seed=11, record_thetas=True),
                   anchors=anchors, alpha=SGD_ALPHA)
    worst = -math.inf
    checked = 0
    for idx in range(len(traj.iters)):
        if in_working_ball(float(traj.dist_init[idx]), float(traj.misfit[idx]),
                           SGD_NU / 2.0, misfit0, SGD_ALPHA):
            drift = exact_conditional_drift(model, traj.thetas[idx], SGD_ETA,
                                            anchors, SGD_ALPHA)
            worst = max(worst, drift.drift_potential)
            checked += 1
    elapsed = time.time() - start
    ok = checked == len(traj.iters) and worst <= 1e-12 and elapsed < 10.0
    report(6, "exact conditional potential drift nonpositive", ok,
           f"{checked} states, worst drift {worst:.3g}, {elapsed:.1f}s")


def test_criterion_07_sgd_expected_decay():
    start = time.time()
    model, theta0 = sgd_instance()
    misfit0 = model.misfit(theta0)
    trajs = [
        run_sgd(model, theta0, OptimConfig(eta=SGD_ETA, max_iters=250, seed=s))
        for s in range(500)
    ]
    survivors = [t for t in trajs if sgd_run_survives(t, SGD_NU, SGD_ALPHA)]
    exits = len(trajs) - len(survivors)
    freq = exits / len(trajs)
    se_freq = math.sqrt(freq * (1 - freq) / len(trajs))
    fail_bound = (4.0 / SGD_NU) * (SGD_BETA / SGD_ALPHA) ** (1.0 / model.p)

    sq = np.array([t.misfit**2 for t in survivors])
    mean = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(len(survivors))
    taus = np.arange(251, dtype=float)
    envelope = (1.0 - SGD_ETA * SGD_ALPHA**2 / (2 * model.n)) ** taus * misfit0**2
    worst = float(np.max(mean - envelope - 3.0 * se))
    elapsed = time.time() - start
    ok = (worst <= 1e-12 and freq <= fail_bound + 3 * se_freq and elapsed < 60.0)
    report(7, "expected squared-misfit decay over 500 seeds", ok,
           f"max excess {worst:.3g}, exit freq {freq:.3g} <= {fail_bound:.3g}, {elapsed:.0f}s")


def test_criterion_08_lowrank_experiment():
    start = time.time()
    sizes = (25, 50, 100, 200)
    seeds = range(20)
    final_misfit = {n: [] for n in sizes}
    final_dist = {n: [] for n in sizes}
    monotone = True
    for seed in seeds:
        for n, (traj, eta, c1) in zip(sizes, run_lowrank_study(sizes, seed, iters=200)):
            final_misfit[n].append(traj.norm_misfit[-1])
            final_dist[n].append(traj.norm_dist[-1])
            monotone &= bool(np.all(
                np.diff(traj.loss) <= 1e-12 * np.maximum(traj.loss[:-1], 1.0)
            ))
    med_mis = {n: float(np.median(final_misfit[n])) for n in sizes}
    med_dist = [float(np.median(final_dist[n])) for n in sizes]
    small_n_ok = all(med_mis[n] <= 0.1 for n in (25, 50, 100))
    dist_monotone = all(b >= a - 1e-12 for a, b in zip(med_dist, med_dist[1:]))
    elapsed = time.time() - start
    ok = small_n_ok and dist_monotone and monotone and elapsed < 300.0
    report(8, "low-rank study: misfit decay, distance growth, monotone loss", ok,
           f"median misfit {[f'{med_mis[n]:.2g}' for n in sizes]}, "
           f"median dist {[f'{v:.3g}' for v in med_dist]}, {elapsed:.0f}s")


def test_criterion_09_lowrank_jacobian_spectrum():
    start = time.time()
    rng = np.random.default_rng(0)
    d, r, n = 20, 2, 10
    Xs = rng.standard_normal((n, d, d))
    y = rng.integers(0, 2, n) * 2.0 - 1.0
    theta0 = lowrank_init(d, r, n, float(np.linalg.norm(y)), seed=0)
    model = LowRankModel(Xs, y, d, r)
    vartheta = math.sqrt(float(np.linalg.norm(y))) / (r * n) ** 0.25
    radius = vartheta * math.sqrt(r) / 2400.0
    bounds = probe_spectrum(model, theta0, radius, samples=32, seed=1)
    lo = 0.005 * vartheta * math.sqrt(d * r)
    hi = 100.0 * vartheta * math.sqrt(d) * r
    elapsed = time.time() - start
    ok = bounds.alpha >= lo and bounds.beta <= hi and elapsed < 10.0
    report(9, "low-rank Jacobian spectrum inside widened band", ok,
           f"alpha {bounds.alpha:.3g} >= {lo:.3g}, beta {bounds.beta:.3g} <= {hi:.3g}")


def test_criterion_10_pl_suite():
    start = time.time()
    X = np.diag([1.0, 2.0])
    y = np.array([3.0, 4.0])
    base = LinearModel(X, y)
    mu, L = 1.0, 4.0
    eta = 1.0 / L
    loss_fn = GeneralLoss(value=base.loss, grad=base.gradient, smoothness_L=L)
    theta0 = np.zeros(2)
    loss0 = base.loss(theta0)
    traj = run_pl_gd(loss_fn, theta0, OptimConfig(eta=eta, max_iters=300), mu=mu)
    rep = check_pl_theorems(traj, mu=mu, smoothness_L=L, loss0=loss0)
    zero_rows = np.flatnonzero(traj.loss <= 1e-20)
    floor = math.sqrt(2.0 * loss0 / L) - 1e-6
    dist_ok = zero_rows.size > 0 and traj.dist_init[zero_rows[0]] >= floor
    elapsed = time.time() - start
    ok = rep.all_passed and dist_ok and elapsed < 5.0
    report(10, "gradient-dominance suite on the diagonal quadratic", ok,
           rep.to_text().replace("\n", "; "))


def test_criterion_11_shallow_net():
    start = time.time()
    act = tanh_linear(0.3)
    worst_env = -math.inf
    worst_pot = -math.inf
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, d, k = 10, 30, 8
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        model = ShallowNetModel(X, y, v, act)
        theta0 = (rng.standard_normal((k, d)) / math.sqrt(d)).reshape(-1)
        eta = net_step_size(model, theta0)
        smin = float(np.linalg.svd(X, compute_uv=False)[-1])
        traj = run_gd(model, theta0, OptimConfig(eta=eta, max_iters=2000))
        taus = traj.iters.astype(float)
        envelope = (1.0 - eta * act.gamma**2 * smin**2) ** taus * traj.misfit0
        worst_env = max(worst_env, float(np.max(traj.misfit - envelope)))
        potential = act.gamma * smin / 4.0 * traj.dist_init + traj.misfit - traj.misfit0
        worst_pot = max(worst_pot, float(np.max(potential)))
    elapsed = time.time() - start
    scale = 1e-9
    ok = worst_env <= scale and worst_pot <= scale and elapsed < 60.0
    report(11, "shallow-net misfit envelope and weighted potential", ok,
           f"worst envelope excess {worst_env:.3g}, worst potential excess "
           f"{worst_pot:.3g}, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    # adversarial run, stochastic run, and a CLI pipeline, each twice
    def tight_run():
        model, theta0 = make_lower_bound_instance(1.0, 2.0, p=2, mode="tight-upper")
        return run_gd(model, theta0, OptimConfig(eta=0.125, max_iters=500))

    def sgd_run():
        model, theta0 = sgd_instance()
        anchors = sgd_packing(model.misfit(theta0))
        return run_sgd(model, theta0, OptimConfig(eta=SGD_ETA, max_iters=200, seed=3),
                       anchors=anchors, alpha=SGD_ALPHA)

    pairs = []
    for maker, stem in ((tight_run, "tight"), (sgd_run, "sgd")):
        paths = []
        for k in (0, 1):
            path = tmp_path / f"{stem}_{k}.csv"
            maker().save(path)
            paths.append(path)
        pairs.append((stem, paths[0].read_bytes() == paths[1].read_bytes()))

    from overparam.cli import main
    cfg = tmp_path / "glm.cfg"
    cfg.write_text(
        "model.family = glm\nmodel.n = 12\nmodel.p = 30\nmodel.data_seed = 4\n"
        "optimizer.kind = gd\noptimizer.iters = 300\n",
        encoding="utf-8",
    )
    outs = []
    for k in (0, 1):
        out = tmp_path / f"cli_{k}"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    pairs.append(("cli", outs[0] == outs[1]))

    ok = all(same for _, same in pairs)
    report(12, "byte-identical reruns with identical seeds", ok,
           ", ".join(f"{name}: {'same' if same else 'DIFFERS'}" for name, same in pairs))
