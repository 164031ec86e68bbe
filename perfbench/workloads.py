"""The workloads: their inputs, their ops and their output checks.

Inputs are made from the workload seed with the package's own generators
and written to files in the work directory; the CLI only ever reads those
files. See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import csv
import itertools
import os
import shutil

import yaml

import checks
from harness import Op, OpResult, with_jobs

DEFAULT_SEED = 1

# The table printed by the README quick start for `fit --data encoded.tsv`.
README_FIT_TABLE = (
    "Treatment  Coefficient  p-value    2.5%  97.5%  Std. Error  Support1  Support2  Warn\n"
    "discount         1.067    0.054  -0.018  2.152       0.554         0         0\n"
    "\n"
    "Note: p-values are per-treatment and unadjusted for multiple testing.\n"
).encode()
README_ENCODE_LINES = b"n=59 p=7 dropped=1\nwrote encoded.tsv\nwrote encoded.columns.yaml\n"


def _exit_problem(r: OpResult) -> list[str]:
    if r.returncode == 0:
        return []
    tail = r.stderr.decode("utf-8", errors="replace").strip().splitlines()[-1:]
    return [f"{r.op.key}: exit status {r.returncode} {' '.join(tail)}".rstrip()]


class Workload:
    """Shared shape: inputs from a seed, rounds of ops, per-op and run checks."""

    name = ""

    def __init__(self, root: str, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds

    def prepare(self, dl, workdir: str) -> None:
        raise NotImplementedError

    def rounds(self):
        """Endless iterator of rounds; a round is a list of ops."""
        raise NotImplementedError

    def reference_ops(self) -> list[Op]:
        """Untimed ops run before the timed phase."""
        return []

    def inspect(self, r: OpResult) -> tuple[int, list[str]]:
        """Failed units and problems found in one op's output."""
        problems = _exit_problem(r)
        return (r.op.units if problems else 0), problems

    def finish(self, results) -> tuple[int, list[str]]:
        """Failed units and problems found across the whole run."""
        return 0, []


class CliDemo(Workload):
    """The README quick start on the shipped demo files, plus one CV fit.

    The seed is unused: the inputs are the shipped files. The cross-validated
    fit is the benchmark's only op that runs cv_lambda (a separate CV
    workload was too unsteady on a shared 2-core host; see README.md).
    """

    name = "cli-demo"
    ENCODE = Op("encode", ("encode", "--data", "toy_survey.csv", "--spec", "encoding.yaml",
                           "--out", "encoded.tsv"))
    FIT = Op("fit", ("fit", "--data", "encoded.tsv"))
    FIT_SPEC = Op("fit-spec", ("fit", "--data", "toy_survey.csv", "--spec", "encoding.yaml"))
    FIT_CV = Op("fit-cv", ("fit", "--data", "encoded.tsv", "--penalty", "cv", "--format", "tsv"))

    def prepare(self, dl, workdir):
        for name in ("toy_survey.csv", "encoding.yaml"):
            shutil.copyfile(os.path.join(self.root, "demo", name), os.path.join(workdir, name))

    def rounds(self):
        return itertools.repeat([self.ENCODE, self.FIT, self.FIT_SPEC, self.FIT_CV])

    def inspect(self, r):
        failed, problems = super().inspect(r)
        if failed:
            return failed, problems
        if r.op is self.FIT_CV:
            problems = [f"{r.op.key}: {p}" for p in checks.fit_table(r.output, 1)]
        else:
            expected = README_ENCODE_LINES if r.op is self.ENCODE else README_FIT_TABLE
            problems = checks.same_bytes(r.output, expected, f"{r.op.key} vs README")
        return (1 if problems else 0), problems


class SurveyFit(Workload):
    """26 logistic treatment fits on a 2000-row survey table, --jobs 2."""

    name = "survey-fit"
    N_ROWS = 2000
    TREATMENTS = 26

    def prepare(self, dl, workdir):
        spec = dl.synthetic_survey_schema()
        with open(os.path.join(workdir, "survey.yaml"), "w", encoding="utf-8") as fh:
            fh.write(dl.encoding_spec_to_yaml(spec))
        # One table per op (an op takes 4 to 7 s), so a run averages over
        # several draws instead of timing one table again and again.
        self.tables = int(self.seconds // 3) + 2
        for k in range(self.tables):
            table = dl.synthetic_survey_table(n=self.N_ROWS, seed=self.seed + k)
            write_csv(table, os.path.join(workdir, f"survey_{k}.csv"))

    def op(self, k: int) -> Op:
        return Op(f"survey_{k}", ("fit", "--data", f"survey_{k}.csv", "--spec", "survey.yaml",
                                  "--jobs", "2", "--format", "tsv"))

    def rounds(self):
        return ([self.op(k % self.tables)] for k in itertools.count())

    def reference_ops(self):
        # The same fit at --jobs 1; its bytes must equal the --jobs 2 output.
        op = self.op(0)
        return [Op(op.key, with_jobs(op.argv, 1))]

    def inspect(self, r):
        failed, problems = super().inspect(r)
        if failed:
            return failed, problems
        problems = [f"{r.op.key}: {p}" for p in checks.fit_table(r.output, self.TREATMENTS)]
        return (1 if problems else 0), problems


class StudyRegimes(Workload):
    """The four simulate.py regimes at reduced reps; an op is one replication."""

    name = "study-regimes"
    REPS = 20
    REGIMES = ("confounded", "sparse_logistic", "sparse_linear", "null_logistic")

    def prepare(self, dl, workdir):
        makers = {
            "confounded": dl.confounded_benchmark,
            "sparse_logistic": dl.sparse_logistic_benchmark,
            "sparse_linear": dl.sparse_linear_benchmark,
            "null_logistic": dl.null_logistic_benchmark,
        }
        for name in self.REGIMES:
            with open(os.path.join(workdir, f"{name}.yaml"), "w", encoding="utf-8") as fh:
                fh.write(dl.study_spec_to_yaml(makers[name](reps=self.REPS)))

    def op(self, regime: str, round_no: int) -> Op:
        # Rounds take disjoint blocks of replication seeds.
        seed = self.seed * 100_000 + round_no * self.REPS
        out = f"{regime}.report.yaml"
        return Op(f"{regime}@{seed}",
                  ("simulate", "--spec", f"{regime}.yaml", "--jobs", "2", "--seed", str(seed),
                   "--out", out),
                  units=self.REPS, out=out)

    def rounds(self):
        return ([self.op(g, k) for g in self.REGIMES] for k in itertools.count())

    @staticmethod
    def reports(r: OpResult) -> dict:
        doc = yaml.safe_load(r.output.decode("utf-8"))
        return {rep["method"]: rep for rep in doc["reports"]}

    def inspect(self, r):
        failed, problems = super().inspect(r)
        if failed:
            return failed, problems
        try:
            reports = self.reports(r)
        except (yaml.YAMLError, KeyError, TypeError) as exc:
            return r.op.units, [f"{r.op.key}: unreadable coverage report ({exc})"]
        bad_reps = set()
        for method, rep in reports.items():
            if rep["reps"] != r.op.units:
                problems.append(f"{r.op.key}: {method} ran {rep['reps']} reps, "
                                f"expected {r.op.units}")
            bad_reps.update(reason.split(":", 1)[0] for reason in rep["failure_reasons"])
        if bad_reps:
            problems.append(f"{r.op.key}: {len(bad_reps)} replications failed")
            return len(bad_reps), problems
        return (r.op.units if problems else 0), problems

    def finish(self, results):
        tally: dict[tuple[str, str], list[int]] = {}
        units: dict[str, int] = {}
        seen = set()
        for r in results:
            # A traced run repeats ops; each replication is counted once.
            if r.returncode != 0 or r.failed_units or r.op.key in seen:
                continue
            seen.add(r.op.key)
            regime = r.op.key.split("@")[0]
            units[regime] = units.get(regime, 0) + r.op.units
            for method, rep in self.reports(r).items():
                t = tally.setdefault((regime, method), [0, 0])
                t[0] += round(rep["coverage"] * rep["successes"])
                t[1] += rep["successes"]
        failed, problems = 0, []
        for regime in units:
            found = checks.coverage_in_band(*tally[(regime, "dml")], level=0.05,
                                            what=f"{regime} dml coverage")
            if regime == "confounded":
                found += checks.naive_below_dml(tally[(regime, "naive")],
                                                tally[(regime, "dml")], regime)
            if found:
                failed += units[regime]
                problems += found
        return failed, problems


WORKLOADS = {w.name: w for w in (CliDemo, SurveyFit, StudyRegimes)}


def write_csv(table, path: str) -> None:
    """Write a RawTable as comma-separated text that load_table reads back."""
    def cell(v):
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows([cell(v) for v in row] for row in table.rows)
