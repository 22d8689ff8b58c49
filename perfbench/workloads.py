"""The benchmark's workloads: fixed lists of `python -m overparam.cli` commands.

Every workload is a closed loop with one client: the commands of a pass run
one at a time, each in a fresh process, and the next starts only after the
previous one has exited. The workload instance goes into each generated
config's `model.data_seed` and `optimizer.seed` (or the `--seed` of
`experiment-lowrank`); the package receives only the generated configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its label, the output kind it is checked as, and
    its arguments after `python -m overparam.cli`, relative to the work dir.

    The expected exit code and outputs of each instance are the reference
    digests in reference.json, recorded from the package, not set here.
    """

    label: str
    kind: str  # run | verify | experiment-lowrank | sgd-martingale
    args: tuple[str, ...]

    @property
    def out_dir(self) -> str:
        return f"out/{self.label}"


def _write_config(path: Path, entries: dict[str, object]) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()),
                    encoding="utf-8")
    return path.name


def _command(label: str, kind: str, *args: str) -> Command:
    return Command(label, kind, (kind, *args, "--out", f"out/{label}", "--quiet"))


def build_certify(instance: int, work: Path) -> list[Command]:
    glm = _write_config(work / "glm.cfg", {
        "model.family": "glm", "model.n": 100, "model.p": 400,
        "model.data_seed": instance, "optimizer.kind": "gd", "optimizer.iters": 500,
        "optimizer.seed": instance,
    })
    net = _write_config(work / "net.cfg", {
        "model.family": "net", "model.n": 50, "model.d": 20, "model.k": 20,
        "model.data_seed": instance, "optimizer.kind": "gd", "optimizer.seed": instance,
    })
    return [
        _command("run_glm", "run", "--config", glm),
        _command("run_net", "run", "--config", net),
        _command("verify_glm", "verify", "--config", glm),
    ]


LOWRANK_SEEDS_PER_INSTANCE = 4


def build_lowrank_study(instance: int, work: Path) -> list[Command]:
    return [
        _command(f"lowrank_{i}", "experiment-lowrank", "--n", "all", "--iters", "200",
                 "--seed", str(LOWRANK_SEEDS_PER_INSTANCE * instance + i))
        for i in range(LOWRANK_SEEDS_PER_INSTANCE)
    ]


def build_sgd_drift(instance: int, work: Path) -> list[Command]:
    model = {"model.family": "glm", "model.n": 40, "model.p": 100,
             "model.data_seed": instance, "optimizer.kind": "sgd",
             "optimizer.seed": instance}
    martingale = _write_config(work / "sgd.cfg", {**model, "optimizer.iters": 2000})
    run = _write_config(work / "sgd_run.cfg",
                        {**model, "optimizer.iters": 20000, "diag.anchors": "on"})
    return [
        _command("martingale", "sgd-martingale", "--config", martingale),
        _command("run_sgd", "run", "--config", run),
    ]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "certify": build_certify,
    "lowrank-study": build_lowrank_study,
    "sgd-drift": build_sgd_drift,
}
