"""Benchmark of the doublelasso command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload survey-fit --seed 1 --seconds 20 --trace 0

--trace 0 times the CLI as a subprocess in a closed loop and prints the
end-to-end metrics; --trace 1 runs the same ops in process with timing
wrappers and prints the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import checks
import harness
import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CALLS = 3
IMPORT_PROBE = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); "
                "import doublelasso; print(time.perf_counter() - t, len(sys.modules) - n)")
# Share of a traced run spent timing untraced subprocess ops, for CPU per wall.
TRACE_SUBPROCESS_SHARE = 0.4


def load_digests(workload) -> dict[str, str]:
    """Reference output digests by op key; they exist for the default seed only."""
    if workload.seed != DEFAULT_SEED:
        return {}
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload.name, {})


def check_results(workload, results) -> tuple[list[str], int]:
    """Run every output check, marking failed units on each result.

    Returns the problems found and the units failed by run-level checks.
    """
    digests = load_digests(workload)
    problems: list[str] = []
    for r in results:
        r.failed_units, r.problems = workload.inspect(r)
        if r.returncode == 0:
            found = checks.matches_digest(r.output, digests.get(r.op.key), r.op.key)
            if found:
                r.failed_units = r.op.units
                r.problems += found
        problems += r.problems
    for r, problem in checks.consistent_by_key(results):
        r.failed_units = r.op.units
        problems.append(problem)
    failed, found = workload.finish(results)
    return problems + found, failed


def timed_run(workload, runner) -> tuple[dict, list, int, int]:
    setup = []
    problems = []
    for _ in range(SETUP_CALLS):
        wall, _, code, out, _ = runner.run_python(["-m", "doublelasso", "--version"])
        setup.append(wall)
        if code != 0 or not out.startswith(b"doublelasso "):
            problems.append(f"--version failed with status {code}")
    reference = [runner.run(op) for op in workload.reference_ops()]
    timed, elapsed = harness.closed_loop(workload.rounds(), runner.run, workload.seconds)
    results = reference + timed
    found, run_failed = check_results(workload, results)
    problems += found
    units = sum(r.op.units for r in timed)
    metrics = {
        "setup_s": (harness.median(setup), "s", len(setup)),
        "ops_per_s": (harness.throughput(units, elapsed), "1/s", units),
        "op_p50_s": (harness.median(r.wall_s / r.op.units for r in timed), "s", len(timed)),
        "cpu_per_op_s": (harness.median(r.cpu_s / r.op.units for r in timed), "s", len(timed)),
        "peak_rss_mb": (runner.peak_rss_mb(), "MB", len(results) + len(setup)),
    }
    attempted = sum(r.op.units for r in results)
    failed = sum(r.failed_units for r in results) + run_failed
    metrics["failed_frac"] = (failed / attempted, "1", attempted)
    return metrics, problems, attempted, failed


def traced_run(workload, runner, workdir) -> tuple[dict, list, int, int, list]:
    from doublelasso import cli

    start = time.perf_counter()
    probes = []
    for _ in range(SETUP_CALLS):
        _, _, code, out, err = runner.run_python(["-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.decode(errors='replace')}")
        seconds, modules = out.split()
        probes.append((float(seconds), int(modules)))

    # CPU per wall second of the untraced subprocess ops, as users run them.
    sub, _ = harness.closed_loop(workload.rounds(), runner.run,
                                 TRACE_SUBPROCESS_SHARE * workload.seconds)
    cpu_per_wall = sum(r.cpu_s for r in sub) / sum(r.wall_s for r in sub)

    # In process at --jobs 1: untraced and traced rounds alternate, so the
    # tracing overhead is measured on the same ops under the same conditions.
    tracer = tracing.Tracer()
    traced_main = tracing.timed(tracer, "cli", cli.main)
    targets = tracing.instrumentation(tracer)
    plain, traced = [], []
    rounds = workload.rounds()

    def run_round(ops, trace: bool):
        for op in ops:
            argv = harness.with_jobs(op.argv, 1)
            if trace:
                with tracing.patched(targets):
                    r = harness.run_in_process(traced_main, op, workdir, argv)
                tracer.op += 1
                traced.append(r)
            else:
                plain.append(harness.run_in_process(cli.main, op, workdir, argv))

    pair = 0
    while pair == 0 or time.perf_counter() - start < workload.seconds:
        ops = next(rounds)
        for trace in ((False, True) if pair % 2 == 0 else (True, False)):
            run_round(ops, trace)
        pair += 1

    results = sub + plain + traced
    problems, run_failed = check_results(workload, results)
    ops = sum(r.op.units for r in traced)
    traced_wall = sum(r.wall_s for r in traced)
    plain_wall = sum(r.wall_s for r in plain)
    self_sum = sum(tracing.self_times(tracer.spans))
    metrics = {
        name: (value, unit, ops) for name, (value, unit) in
        tracing.layer_metrics(tracer, ops).items()
    }
    metrics.update({
        "import.s": (harness.median(p[0] for p in probes), "s", len(probes)),
        "import.modules": (harness.median(p[1] for p in probes), "count", len(probes)),
        "dml.multi_cpu_per_wall": (cpu_per_wall, "ratio", len(sub)),
        "simulate.cpu_per_wall": (cpu_per_wall, "ratio", len(sub)),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio", len(traced)),
        "trace.accounted_frac": (self_sum / traced_wall, "ratio", len(traced)),
    })
    attempted = sum(r.op.units for r in results)
    failed = sum(r.failed_units for r in results) + run_failed
    return metrics, problems, attempted, failed, tracer.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "doublelasso", "cli.py")):
        print(f"error: no doublelasso sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.workload == "cli-demo" and not os.path.isdir(os.path.join(root, "demo")):
        print("error: the cli-demo workload needs the shipped demo/ directory", file=sys.stderr)
        return 2
    os.environ.pop("DOUBLELASSO_JOBS", None)  # ops state their job counts
    sys.path.insert(0, src)
    import doublelasso as dl

    workload = WORKLOADS[args.workload](root, args.seed, args.seconds)
    env = harness.environment(root, src, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.prepare(dl, workdir)
        runner = harness.CliRunner(src, workdir)
        if args.trace:
            metrics, problems, attempted, failed, spans = traced_run(workload, runner, workdir)
            harness.dump_json(
                os.path.join(root, ".bench_work", "traces",
                             f"{args.workload}-seed{args.seed}.json"),
                {"env": env, "spans": [[s.name, s.start, s.end, s.parent, s.op]
                                       for s in spans]})
        else:
            metrics, problems, attempted, failed = timed_run(workload, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}):")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} n={samples}")
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit, _) in metrics.items() if name != "failed_frac"}
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
