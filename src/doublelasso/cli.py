"""Command-line driver: encode tables, fit treatment effects, run studies.

Exit statuses are stable API: 0 success, 2 input or validation problems,
3 estimation failure under --fail-fast, 4 a study exceeding its failure
ceiling. All outputs are byte-deterministic given (inputs, config, seed):
files are written with fixed newlines, numbers print through repr or fixed
decimals, and parallel execution never reorders results.

Only `fit` and `simulate` load the fitting stack (`--version` imports no
numpy, `encode` no scipy). The names below the imports load on first read,
and each command reads them from this module when it runs, so a name set on
the module is the one it calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from . import __version__, _lazy_names
from .config import CV_FOLDS, SERIAL_BELOW_CELLS, DmlConfig, PenaltyConfig
from .errors import (
    DoubleLassoError,
    EmptyDatasetError,
    EncodingError,
    ParseError,
    SchemaError,
)

if TYPE_CHECKING:
    from .encoding import Dataset

_lazy_names(globals(), {
    "dml": ("binary_outcome", "dml_multi"),
    "encoding": ("Dataset", "encode", "encoding_spec_from_yaml", "load_dataset",
                 "load_table", "save_dataset", "sidecar_path"),
    "report": ("render_coverage_reports", "render_fit_results"),
    "simulate": ("coverage_reports_to_yaml", "run_study", "study_spec_from_yaml"),
})
_cli = sys.modules[__name__]

PENALTY_HELP = (f"penalty level rule: plug-in formula, or {CV_FOLDS}-fold cross-validation "
                "(default: plugin)")


def version_string() -> str:
    return f"doublelasso {__version__} [{DmlConfig().fingerprint()}]"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


def _split_selector(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    names = [s.strip() for s in raw.split(",") if s.strip()]
    return names


def _subset_dataset(ds: Dataset, treatments, controls) -> Dataset:
    for flag, names in (("--treatments", treatments), ("--controls", controls)):
        for name in names:
            if names.count(name) > 1:
                raise SchemaError(f"{flag} lists {name!r} more than once")
    known = set(ds.column_names)
    for name in list(treatments) + list(controls):
        if name not in known:
            raise SchemaError(f"selector names unknown column {name!r}")
    overlap = set(treatments) & set(controls)
    if overlap:
        raise SchemaError(f"columns selected as both treatment and control: {sorted(overlap)}")
    keep = list(treatments) + list(controls)
    idx = [ds.index_of(name) for name in keep]
    tset = set(treatments)
    infos = tuple(
        replace(ds.columns[ds.index_of(name)],
                role="treatment" if name in tset else "control")
        for name in keep
    )
    return _cli.Dataset(y=ds.y, design=ds.design[:, idx], columns=infos,
                        outcome_name=ds.outcome_name, n_dropped=ds.n_dropped)


def _encode_raw(args) -> Dataset:
    spec = _cli.encoding_spec_from_yaml(_read_text(args.spec))
    table = _cli.load_table(args.data, missing_tokens=spec.missing_tokens)
    return _cli.encode(table, spec)


def cmd_encode(args) -> int:
    dataset = _encode_raw(args)
    side = _cli.save_dataset(dataset, args.out)
    print(f"n={dataset.n} p={dataset.p} dropped={dataset.n_dropped}")
    print(f"wrote {args.out}")
    print(f"wrote {side}")
    return 0


def _load_fit_dataset(args) -> Dataset:
    if args.spec:
        return _encode_raw(args)
    side = _cli.sidecar_path(args.data)
    if not os.path.exists(args.data):
        raise FileNotFoundError(f"no such file: {args.data}")
    if not os.path.exists(side):
        raise SchemaError(
            f"{args.data} has no metadata sidecar ({side}); pass --spec to encode raw data"
        )
    return _cli.load_dataset(args.data)


def cmd_fit(args) -> int:
    if args.decimals < 0:  # the renderer checks too, but only after every fit
        raise ValueError("decimals must be nonnegative")
    config = DmlConfig(
        penalty=PenaltyConfig(method=args.penalty),
        level=args.level,
        seed=args.seed,
    )
    dataset = _load_fit_dataset(args)
    if args.outcome and args.outcome != dataset.outcome_name:
        raise SchemaError(
            f"outcome selector {args.outcome!r} does not match the dataset outcome "
            f"{dataset.outcome_name!r}"
        )
    treatments = _split_selector(args.treatments)
    controls = _split_selector(args.controls)
    if treatments is not None or controls is not None:
        t = treatments if treatments is not None else list(dataset.treatment_names)
        c = controls if controls is not None else [
            n for n in dataset.control_names if n not in set(t)
        ]
        dataset = _subset_dataset(dataset, t, c)
    if not dataset.treatment_names:
        raise SchemaError("no treatment columns selected")

    family = args.family or ("logit" if _cli.binary_outcome(dataset.y) else "linear")
    results = _cli.dml_multi(dataset, family=family, method="dml", config=config,
                             fail_fast=args.fail_fast, jobs=args.jobs)
    text = _cli.render_fit_results(results, level=args.level, fmt=args.format,
                                   decimals=args.decimals)
    _emit(text, args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.out and args.format != "structured" and args.decimals < 0:
        raise ValueError("decimals must be nonnegative")
    study = _cli.study_spec_from_yaml(_read_text(args.spec))
    if args.seed is not None:
        study = replace(study, base_seed=args.seed)
    if args.level is not None:
        study = replace(study, level=args.level)
    config = DmlConfig(
        penalty=PenaltyConfig(method=args.penalty),
        level=study.level,
        seed=study.base_seed,
    )
    reports = _cli.run_study(study, config=config, jobs=args.jobs)
    if args.out:
        if args.format == "structured":
            text = _cli.coverage_reports_to_yaml(reports)
        else:
            text = _cli.render_coverage_reports(reports, fmt=args.format,
                                                decimals=args.decimals)
        _emit(text, args.out)
    for r in reports:
        print(
            f"{r.method}: coverage={r.coverage:.3f} mean_bias={r.mean_bias:+.4f} "
            f"({r.successes}/{r.reps} ok)"
        )
    worst = [r for r in reports if r.reps and r.failures / r.reps > study.max_failure_rate]
    if worst:
        names = ", ".join(r.method for r in worst)
        print(
            f"error: failure rate above the ceiling {study.max_failure_rate:g} "
            f"for: {names}",
            file=sys.stderr,
        )
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    jobs_help = (
        f"processes that fit: this one plus JOBS-1 workers, each on one BLAS thread "
        f"(default: 1); jobs under {SERIAL_BELOW_CELLS / 1e6:g}M design cells (times the "
        f"lasso solves per step under --penalty cv) run in this process; the measured "
        f"prices behind the cutoff are in doublelasso/config.py"
    )
    ap = argparse.ArgumentParser(
        prog="doublelasso",
        description="Post-selection inference for treatment effects with "
                    "many controls: encode tables, fit, and calibrate.",
    )
    ap.add_argument("--version", action="version", version=version_string())
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="turn a raw delimited table into a numeric dataset")
    enc.add_argument("--data", required=True, help="raw delimited table (csv or tsv)")
    enc.add_argument("--spec", required=True, help="encoding spec (yaml)")
    enc.add_argument("--out", required=True, help="encoded matrix path (sidecar written next to it)")
    enc.set_defaults(func=cmd_encode)

    fit = sub.add_parser("fit", help="estimate treatment effects on a dataset")
    fit.add_argument("--data", required=True,
                     help="encoded dataset (with sidecar) or raw table when --spec is given")
    fit.add_argument("--spec", help="encoding spec; treat --data as a raw table")
    fit.add_argument("--outcome", help="expected outcome column (validated)")
    fit.add_argument("--treatments", help="comma-separated treatment columns")
    fit.add_argument("--controls", help="comma-separated control columns")
    fit.add_argument("--family", choices=("logit", "linear"),
                     help="default: logit when the outcome is binary")
    fit.add_argument("--penalty", choices=("plugin", "cv"), default="plugin",
                     help=PENALTY_HELP)
    fit.add_argument("--level", type=float, default=0.05,
                     help="significance level (default 0.05)")
    fit.add_argument("--seed", type=int, default=0,
                     help="cross-validation fold seed (used only with --penalty cv)")
    fit.add_argument("--format", choices=("aligned", "tsv", "structured"),
                     default="aligned")
    fit.add_argument("--decimals", type=int, default=3)
    fit.add_argument("--out", help="write the table here instead of stdout")
    fit.add_argument("--fail-fast", action="store_true",
                     help="stop on the first estimation failure (exit 3)")
    fit.add_argument("--jobs", type=int, default=1, help=jobs_help)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study from a spec")
    sim.add_argument("--spec", required=True, help="study spec (yaml)")
    sim.add_argument("--out", help="write coverage reports here")
    sim.add_argument("--format", choices=("aligned", "tsv", "structured"),
                     default="structured")
    sim.add_argument("--decimals", type=int, default=3)
    sim.add_argument("--seed", type=int, default=None, help="override the base seed")
    sim.add_argument("--level", type=float, default=None, help="override the level")
    sim.add_argument("--penalty", choices=("plugin", "cv"), default="plugin",
                     help=PENALTY_HELP)
    sim.add_argument("--jobs", type=int, default=1, help=jobs_help)
    sim.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # bypass argparse's version action: it wraps long lines at terminal width
    if "--version" in raw:
        print(version_string())
        return 0
    args = build_parser().parse_args(raw)
    try:
        return args.func(args)
    except (ParseError, SchemaError, EncodingError, EmptyDatasetError,
            FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DoubleLassoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
