"""Record the reference output digests that run.py checks at the default seed.

Usage, from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_digests.py

Each op is run once in process at --jobs 1 (the CLI's output does not
depend on the job count, and run.py checks that it does not) and the
sha256 of its output is written to perfbench/digests.json. Run it again
only when a change is meant to alter the CLI's output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = 20  # run_seconds in BENCHMARK.json; sets how many inputs a run makes
ROUNDS = {"cli-demo": 1, "survey-fit": 8, "study-regimes": 8}


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import doublelasso as dl
    from doublelasso import cli

    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls(root, DEFAULT_SEED, SECONDS)
        workdir = os.path.join(root, ".bench_work", f"digests-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workload.prepare(dl, workdir)
            rounds = workload.rounds()
            found = {}
            for _ in range(ROUNDS[name]):
                for op in next(rounds):
                    r = harness.run_in_process(cli.main, op, workdir,
                                               harness.with_jobs(op.argv, 1))
                    failed, problems = workload.inspect(r)
                    if failed:
                        raise SystemExit(f"{name}: {problems}")
                    found[op.key] = harness.digest(r.output)
            digests[name] = found
            print(f"{name}: {len(found)} digests")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
