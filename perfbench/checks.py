"""Output digests of each CLI command and their comparison with reference values.

A digest keeps what the correctness check needs from a command's output
directory: the exit code, the `bounds.csv` pass column, sampled trajectory
rows, and the headline numbers of `verify`, `sgd-martingale` and
`experiment-lowrank`. Reference digests were recorded with the package at the
commit named in `reference.json`; `record_reference.py` rewrites them.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

# Trajectory rows kept per CSV: evenly spaced, always including first and last.
TRAJECTORY_SAMPLES = 5
# Largest deviation of a trajectory value, relative to its column's largest
# magnitude, that still counts as rounding.
TRAJECTORY_TOL = 1e-8
# verify: alpha, beta and L within this relative deviation.
VERIFY_RTOL = 1e-10
# experiment-lowrank: normalized final misfit and distance (both O(1) scale).
LOWRANK_ATOL = 1e-8
# sgd-martingale: the worst drift must stay at or below this, and match.
DRIFT_LIMIT = 1e-12
DRIFT_RTOL = 1e-8


def trajectory_digest(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines[1:] if not line.startswith("#")]
    trailer = dict(line[2:].split("=", 1) for line in lines if line.startswith("# ")
                   and "=" in line)
    count = len(rows)
    picks = sorted({round(k * (count - 1) / (TRAJECTORY_SAMPLES - 1))
                    for k in range(TRAJECTORY_SAMPLES)})
    sample = {}
    for idx in picks:
        fields = rows[idx].split(",")
        sample[str(idx)] = [int(fields[0])] + [float(x) if x else None for x in fields[1:]]
    return {"rows": count, "termination": trailer.get("termination"), "sample": sample}


def _bounds_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[*line.split(",")[:2], line.split(",")[-1]] for line in lines if line]


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines()
                if "=" in line and " " not in line.split("=", 1)[0])


def digest(kind: str, out_dir: Path, exit_code: int, log: str = "") -> dict:
    """Digest of one command's outputs; a missing or malformed file raises.

    A command that ends in an error (exit 2 or 3, or killed) writes no outputs;
    its digest is the exit code and the last line it printed.
    """
    out: dict = {"exit": exit_code}
    if exit_code not in (0, 1):
        lines = log.strip().splitlines()
        out["error"] = lines[-1] if lines else ""
    elif kind == "run":
        out["bounds"] = _bounds_rows(out_dir / "bounds.csv")
        out["trajectory"] = trajectory_digest(out_dir / "trajectory.csv")
    elif kind == "verify":
        text = (out_dir / "verify.txt").read_text(encoding="utf-8")
        values = _key_values(text)
        for key in ("alpha", "beta", "L"):
            out[key] = float(values[key])
        # verify.txt prints the max deviation at 6 significant digits only.
        out["max_deviation"] = re.search(r"max deviation (\S+) vs", text).group(1)
    elif kind == "sgd-martingale":
        text = (out_dir / "martingale_summary.txt").read_text(encoding="utf-8")
        match = re.match(r"checked (\d+)/(\d+) states .*max potential drift (\S+) ", text)
        out["checked"], out["states"] = int(match.group(1)), int(match.group(2))
        out["worst"] = float(match.group(3))
    elif kind == "experiment-lowrank":
        summary = next(out_dir.glob("lowrank_summary_seed*.txt"))
        out["sizes"] = []
        out["trajectories"] = {}
        for line in summary.read_text(encoding="utf-8").splitlines():
            fields = dict(item.split("=", 1) for item in line.split())
            n, seed = fields["n"], fields["seed"]
            out["sizes"].append({"n": int(n), "c1": float(fields["c1"]),
                                 "final_norm_misfit": float(fields["final_norm_misfit"]),
                                 "final_norm_dist": float(fields["final_norm_dist"])})
            out["trajectories"][n] = trajectory_digest(out_dir / f"lowrank_n{n}_seed{seed}.csv")
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return out


def trajectory_deviation(ref: dict, got: dict, problems: list[str], where: str) -> float:
    """Largest column-relative deviation of the sampled rows; mismatched
    structure (row count, termination, sampled iterations) is a problem."""
    if (ref["rows"], ref["termination"]) != (got["rows"], got["termination"]):
        problems.append(f"{where}: {got['rows']} rows ending {got['termination']}, "
                        f"expected {ref['rows']} ending {ref['termination']}")
        return math.inf
    ref_rows = list(ref["sample"].values())
    got_rows = list(got["sample"].values())
    if [len(row) for row in got_rows] != [len(row) for row in ref_rows]:
        problems.append(f"{where}: {len(got_rows[0])} columns, expected {len(ref_rows[0])}")
        return math.inf
    worst = 0.0
    for col in range(1, len(ref_rows[0])):
        ref_col = [row[col] for row in ref_rows]
        got_col = [row[col] for row in got_rows]
        if any((a is None) != (b is None) for a, b in zip(ref_col, got_col)):
            problems.append(f"{where}: column {col} blank where the reference is not")
            return math.inf
        pairs = [(a, b) for a, b in zip(ref_col, got_col) if a is not None]
        scale = max((abs(a) for a, _ in pairs), default=0.0) or 1.0
        for a, b in pairs:
            dev = abs(a - b) / scale if math.isfinite(b) else math.inf
            worst = max(worst, dev)
    if [row[0] for row in ref_rows] != [row[0] for row in got_rows]:
        problems.append(f"{where}: sampled iterations differ")
        return math.inf
    if worst > TRAJECTORY_TOL:
        problems.append(f"{where}: trajectory deviates by {worst:.3g} (tolerance "
                        f"{TRAJECTORY_TOL:g})")
    return worst


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def compare(kind: str, ref: dict, got: dict) -> tuple[list[str], float]:
    """Problems found comparing a digest with its reference, and the largest
    trajectory deviation seen (0 when the command writes no trajectory)."""
    problems: list[str] = []
    dev = 0.0
    if got["exit"] != ref["exit"]:
        problems.append(f"exit code {got['exit']}, expected {ref['exit']}")
        return problems, math.inf
    if "error" in ref:
        if got["error"] != ref["error"]:
            problems.append(f"error {got['error']!r}, expected {ref['error']!r}")
    elif kind == "run":
        if got["bounds"] != ref["bounds"]:
            problems.append(f"bounds.csv pass column {got['bounds']} != {ref['bounds']}")
        dev = trajectory_deviation(ref["trajectory"], got["trajectory"], problems,
                                   "trajectory.csv")
    elif kind == "verify":
        for key in ("alpha", "beta", "L"):
            if _rel(got[key], ref[key]) > VERIFY_RTOL:
                problems.append(f"{key}={got[key]!r}, expected {ref[key]!r}")
        if got["max_deviation"] != ref["max_deviation"]:
            problems.append(f"max deviation {got['max_deviation']}, expected "
                            f"{ref['max_deviation']}")
    elif kind == "sgd-martingale":
        if (got["checked"], got["states"]) != (ref["checked"], ref["states"]):
            problems.append(f"checked {got['checked']}/{got['states']} states, expected "
                            f"{ref['checked']}/{ref['states']}")
        if not got["worst"] <= DRIFT_LIMIT:
            problems.append(f"worst drift {got['worst']!r} above {DRIFT_LIMIT:g}")
        if _rel(got["worst"], ref["worst"]) > DRIFT_RTOL:
            problems.append(f"worst drift {got['worst']!r}, expected {ref['worst']!r}")
    elif kind == "experiment-lowrank":
        if [s["n"] for s in got["sizes"]] != [s["n"] for s in ref["sizes"]]:
            problems.append("experiment sizes differ")
            return problems, math.inf
        for g, r in zip(got["sizes"], ref["sizes"]):
            if g["c1"] != r["c1"]:
                problems.append(f"n={g['n']}: c1={g['c1']!r}, expected {r['c1']!r}")
            for key in ("final_norm_misfit", "final_norm_dist"):
                if not abs(g[key] - r[key]) <= LOWRANK_ATOL:
                    problems.append(f"n={g['n']}: {key}={g[key]!r}, expected {r[key]!r}")
        for n, ref_traj in ref["trajectories"].items():
            dev = max(dev, trajectory_deviation(ref_traj, got["trajectories"][n], problems,
                                                f"lowrank n={n}"))
    return problems, dev
