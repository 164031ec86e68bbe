"""Spans recorded from outside the program, for the traced run.

Timing wrappers are installed on the public names that callers look up at
call time (a module attribute read when the call happens), and removed
again afterwards. A wrapper passes its function's return value and any
exception through unchanged, so the program behaves as it does untraced.
The fitters that dml._FITTERS captured at import cannot be reached this
way; their time shows in the enclosing dml.multi span.

The traced ops run in one thread (--jobs 1), so spans nest as a stack.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int


class Tracer:
    """Collects spans and counters in memory; nothing is written until the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[tuple[str, float, int]] = []

    def enter(self, name: str) -> None:
        # The slot is taken on entry so a child can name its parent before
        # the parent's span is complete.
        self._stack.append((name, time.perf_counter(), len(self.spans)))
        self.spans.append(None)  # type: ignore[arg-type]

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, index = self._stack.pop()
        parent = self._stack[-1][2] if self._stack else None
        self.spans[index] = Span(name, start, end, parent, self.op)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount


def timed(tracer: Tracer, name: str, fn, observe=None):
    """Wrap `fn` in a span; `observe(result)` may count things in the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if observe is not None:
            observe(result)
        return result

    return wrapper


@contextlib.contextmanager
def patched(targets):
    """Replace module attributes for the duration of the block.

    `targets` is a list of (module, attribute, replacement). The originals
    are restored on exit, also when the block raises.
    """
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, repl in targets:
            setattr(mod, attr, repl)
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize_spans(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of spans, total duration and total self time."""
    own = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"n": 0, "total": 0.0, "self": 0.0})
    for s, t in zip(spans, own):
        a = agg[s.name]
        a["n"] += 1
        a["total"] += s.end - s.start
        a["self"] += t
    return dict(agg)


def children_of(spans, parent_name: str) -> int:
    """How many spans sit directly inside a span called `parent_name`."""
    return sum(1 for s in spans
               if s.parent is not None and spans[s.parent].name == parent_name)


# ---------------------------------------------------------------------------
# What to wrap in doublelasso


def instrumentation(tracer: Tracer) -> list:
    """(module, attribute, wrapper) triples for every traced layer boundary.

    Each name is wrapped in every module whose code calls it, so calls from
    inside the lasso module (loadings, cross-validation) nest under their
    callers.
    """
    from doublelasso import cli, dml, glm, lasso, simulate

    def lasso_fit(result):
        tracer.count("lasso.sweeps", result.iterations)
        tracer.count("lasso.nonconverged", 0 if result.converged else 1)

    def fit_results(results):
        for r in results:
            if isinstance(r, dml.FitFailure):
                tracer.count("dml.fit_failures")
            elif r.diagnostics.get("boundary_hit"):
                tracer.count("dml.boundary_hits")

    def table_cells(table):
        tracer.count("encoding.cells", table.n_rows * len(table.columns))

    def dataset_cells(ds):
        tracer.count("encoding.cells", ds.n * (ds.p + 1))

    def report_bytes(text):
        tracer.count("report.bytes", len(text.encode("utf-8")))

    plan = [
        ("encoding.spec_parse", [(cli, "encoding_spec_from_yaml")], None),
        ("encoding.load_table", [(cli, "load_table")], table_cells),
        ("encoding.encode", [(cli, "encode")], None),
        ("encoding.save_dataset", [(cli, "save_dataset")], None),
        ("encoding.load_dataset", [(cli, "load_dataset")], dataset_cells),
        ("report.render", [(cli, "render_fit_results"), (cli, "render_coverage_reports"),
                           (cli, "coverage_reports_to_yaml")], report_bytes),
        ("simulate.spec_parse", [(cli, "study_spec_from_yaml")], None),
        ("simulate.run_study", [(cli, "run_study")], None),
        ("simulate.gen_dgp", [(simulate, "gen_dgp")], None),
        ("simulate.summarize", [(simulate, "summarize")], None),
        ("dml.multi", [(cli, "dml_multi"), (simulate, "dml_multi")], fit_results),
        ("dml.score", [(dml, "iv_logit_objective")], None),
        ("lasso.cv", [(dml, "cv_lambda")], None),
        ("lasso.loadings", [(dml, "logistic_lasso_loadings"), (dml, "wls_lasso_loadings"),
                            (lasso, "logistic_lasso_loadings"),
                            (lasso, "wls_lasso_loadings")], None),
        ("lasso.logistic", [(dml, "lasso_logistic"), (lasso, "lasso_logistic")], lasso_fit),
        ("lasso.wls", [(dml, "lasso_wls"), (lasso, "lasso_wls")], lasso_fit),
        ("lasso.post_refit", [(dml, "post_refit")], None),
        ("glm.wls_fit", [(glm, "wls_fit")], None),
        ("glm.solve_spd", [(glm, "solve_spd"), (lasso, "solve_spd"), (dml, "solve_spd")], None),
    ]
    return [(mod, attr, timed(tracer, name, getattr(mod, attr), observe))
            for name, sites, observe in plan for mod, attr in sites]


# Per-layer metrics: (metric, unit, span name, statistic). Statistics are
# "total" (span durations), "self" (durations minus children), "n" (span
# count), or a counter name prefixed with "count:". All are per op.
LAYER_METRICS = [
    ("cli.self_s", "s", "cli", "self"),
    ("encoding.spec_parse_s", "s", "encoding.spec_parse", "total"),
    ("encoding.load_table_s", "s", "encoding.load_table", "total"),
    ("encoding.encode_s", "s", "encoding.encode", "total"),
    ("encoding.save_dataset_s", "s", "encoding.save_dataset", "total"),
    ("encoding.load_dataset_s", "s", "encoding.load_dataset", "total"),
    ("encoding.cells", "count", None, "count:encoding.cells"),
    ("report.render_s", "s", "report.render", "total"),
    ("report.bytes", "count", None, "count:report.bytes"),
    ("lasso.loadings_self_s", "s", "lasso.loadings", "self"),
    ("lasso.logistic_s", "s", "lasso.logistic", "total"),
    ("lasso.logistic_calls", "count", "lasso.logistic", "n"),
    ("lasso.sweeps", "count", None, "count:lasso.sweeps"),
    ("lasso.nonconverged", "count", None, "count:lasso.nonconverged"),
    ("lasso.wls_s", "s", "lasso.wls", "total"),
    ("lasso.wls_calls", "count", "lasso.wls", "n"),
    ("lasso.post_refit_self_s", "s", "lasso.post_refit", "self"),
    ("lasso.cv_self_s", "s", "lasso.cv", "self"),
    ("glm.solve_spd_s", "s", "glm.solve_spd", "total"),
    ("glm.solve_spd_calls", "count", "glm.solve_spd", "n"),
    ("glm.wls_fit_self_s", "s", "glm.wls_fit", "self"),
    ("dml.score_s", "s", "dml.score", "total"),
    ("dml.score_evals", "count", "dml.score", "n"),
    ("dml.self_s", "s", "dml.multi", "self"),
    ("dml.boundary_hits", "count", None, "count:dml.boundary_hits"),
    ("dml.fit_failures", "count", None, "count:dml.fit_failures"),
    ("simulate.spec_parse_s", "s", "simulate.spec_parse", "total"),
    ("simulate.gen_dgp_s", "s", "simulate.gen_dgp", "total"),
    ("simulate.summarize_s", "s", "simulate.summarize", "total"),
    ("simulate.self_s", "s", "simulate.run_study", "self"),
]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer figures from the recorded spans and counters."""
    agg = summarize_spans(tracer.spans)
    out = {}
    for metric, unit, span, stat in LAYER_METRICS:
        if stat.startswith("count:"):
            value = tracer.counts.get(stat[len("count:"):], 0.0)
        else:
            value = agg.get(span, {}).get(stat, 0.0)
        out[metric] = (value / ops, unit)
    out["lasso.cv_solves"] = (children_of(tracer.spans, "lasso.cv") / ops, "count")
    # A total, not per op: the number of replications the figures rest on.
    out["simulate.replications"] = (agg.get("simulate.gen_dgp", {}).get("n", 0), "count")
    return out
