"""Record the reference output digests the benchmark checks every command against.

Usage (from the root of a checkout):

    python3 perfbench/record_reference.py --commit <id>

Runs every command of every workload once for each of INSTANCES instances,
untimed, JOBS commands at a time, with the same environment as the benchmark,
and writes perfbench/reference.json with each command's exit code and output
digest as the package produced them, errors included. Re-record only when
the outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import checks
from run import REFERENCE, WORK_ROOT, child_env, spawn
from workloads import WORKLOADS

# run.py picks instance `seed mod INSTANCES`, reading the count from the file.
INSTANCES = 16
# One single-threaded command per core of the 2-core host the reference was
# recorded on.
JOBS = 2


def record_instance(workload_name: str, instance: int) -> dict:
    work = WORK_ROOT / "reference" / f"{workload_name}-{instance}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    digests = {}
    for cmd in WORKLOADS[workload_name](instance, work):
        argv = [sys.executable, "-m", "overparam.cli", *cmd.args]
        log = work / f"{cmd.label}.log"
        _wall, _rss, code = spawn(argv, work, env, log, time.monotonic() + 600.0)
        digests[cmd.label] = checks.digest(cmd.kind, work / cmd.out_dir, code,
                                           log.read_text(encoding="utf-8"))
        print(f"{workload_name}/{instance} {cmd.label}: exit {code} "
              f"{digests[cmd.label].get('error', '')}", flush=True)
    shutil.rmtree(work)
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True,
                        help="commit of the package the digests are recorded from")
    args = parser.parse_args(argv)
    jobs = [(name, i) for name in WORKLOADS for i in range(INSTANCES)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda job: record_instance(*job), jobs))
    # One line per workload instance keeps the file diffable.
    lines = [f' "{name}/{i}": {json.dumps(digest, separators=(",", ":"))}'
             for (name, i), digest in zip(jobs, results)]
    REFERENCE.write_text(
        f'{{"package_commit": {json.dumps(args.commit)}, "instances": {INSTANCES},\n'
        ' "digests": {\n' + ",\n".join(lines) + "\n}}\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
