"""Plain-text rendering of fit results and coverage reports.

Three formats share one row model. "aligned" is the human table (fixed
decimals, padded columns), "tsv" is tab-delimited with full-precision
repr floats for machines, and "structured" is a round-trippable YAML
document. Warnings collected from the fitted rows are printed verbatim
exactly once each in the aligned and tsv renderings; rows keep a marker
column so the origin stays visible. p-values are per-treatment and no
multiple-testing adjustment is applied, which the output says explicitly.
"""

from __future__ import annotations

import yaml

from .dml import DmlEstimate, FitFailure

REPORT_VERSION = 1
MULTIPLICITY_NOTE = "p-values are per-treatment and unadjusted for multiple testing"
_FORMATS = ("aligned", "tsv", "structured")


def _number_cell(fmt: str, decimals: int):
    """Check fmt and decimals; return the formatter of a number cell."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")
    if decimals < 0:
        raise ValueError("decimals must be nonnegative")
    if fmt == "tsv":
        return lambda v: repr(float(v))
    return lambda v: f"{v:.{decimals}f}"


def percent_labels(level: float) -> tuple[str, str]:
    """Interval column headers for a significance level, e.g. 2.5% / 97.5%."""
    lo = 100.0 * (level / 2.0)
    hi = 100.0 * (1.0 - level / 2.0)
    return f"{lo:g}%", f"{hi:g}%"


def _table(fmt, headers, aligns, rows, note, sections) -> str:
    """The tsv or aligned text of a table, then its note, if any, and each
    nonempty (tsv tag, aligned title, items) section."""
    sections = [s for s in sections if s[2]]
    if fmt == "tsv":
        lines = ["\t".join(row) for row in (headers, *rows)]
        lines += [f"# note: {note}"] if note else []
        lines += [f"# {tag}: {item}" for tag, _, items in sections for item in items]
        return "\n".join(lines) + "\n"
    widths = [max(len(row[j]) for row in (headers, *rows)) for j in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) if align == "<" else cell.rjust(width)
                  for cell, width, align in zip(row, widths, aligns)).rstrip()
        for row in (headers, *rows)
    ]
    lines += [""] if note or sections else []
    lines += [f"Note: {note}."] if note else []
    for _, title, items in sections:
        lines.append(f"{title}:")
        lines += [f"  - {item}" for item in items]
    return "\n".join(lines) + "\n"


def render_fit_results(results, *, level: float, fmt: str = "aligned",
                       decimals: int = 3) -> str:
    """One row per treatment: Coefficient, p-value, interval bounds, SE.

    `results` is the dml_multi output (estimates and failures in request
    order). Aligned output appends the shared warnings and any failures
    below the table; tsv keeps machine full precision and carries the same
    extras as comment lines; structured is YAML.
    """
    num = _number_cell(fmt, decimals)
    lo_lab, hi_lab = percent_labels(level)
    estimates = [r for r in results if isinstance(r, DmlEstimate)]
    failures = [r for r in results if isinstance(r, FitFailure)]
    all_warnings = list(dict.fromkeys(w for e in estimates for w in e.warnings))

    if fmt == "structured":
        doc = {
            "version": REPORT_VERSION,
            "level": level,
            "note": MULTIPLICITY_NOTE,
            "rows": [
                {
                    "treatment": e.treatment,
                    "method": e.method,
                    "family": e.family,
                    "n": e.n,
                    "coefficient": float(e.alpha),
                    "std_error": float(e.std_error),
                    "p_value": float(e.p_value),
                    "ci_low": float(e.ci_low),
                    "ci_high": float(e.ci_high),
                    "support1": len(e.step1_support),
                    "support2": len(e.step2_support),
                    "warnings": list(e.warnings),
                }
                for e in estimates
            ],
            "failures": [
                {"treatment": f.treatment, "error": f.error, "message": f.message}
                for f in failures
            ],
        }
        return yaml.safe_dump(doc, sort_keys=False)

    headers = ("Treatment", "Coefficient", "p-value", lo_lab, hi_lab,
               "Std. Error", "Support1", "Support2", "Warn")
    rows = [
        (
            e.treatment, num(e.alpha), num(e.p_value), num(e.ci_low),
            num(e.ci_high), num(e.std_error), str(len(e.step1_support)),
            str(len(e.step2_support)), "*" if e.warnings else "",
        )
        for e in estimates
    ]
    failed = [f"{f.treatment}: {f.error}: {f.message}" for f in failures]
    return _table(fmt, headers, "<" + ">" * 7 + "<", rows, MULTIPLICITY_NOTE,
                  [("warning", "Warnings", all_warnings), ("failed", "Failures", failed)])


def render_coverage_reports(reports, *, fmt: str = "aligned",
                            decimals: int = 3) -> str:
    """One row per method: bias, spread, coverage, width, rejection rate."""
    num = _number_cell(fmt, decimals)
    reports = list(reports)

    if fmt == "structured":
        from .simulate import coverage_reports_to_yaml

        return coverage_reports_to_yaml(reports)

    headers = ("Method", "Reps", "OK", "Fail", "Mean Bias", "Median Bias",
               "SD", "Mean SE", "Coverage", "CI Width", "Reject")
    rows = [
        (
            r.method, str(r.reps), str(r.successes), str(r.failures),
            num(r.mean_bias), num(r.median_bias), num(r.sd), num(r.mean_se),
            num(r.coverage), num(r.mean_ci_width), num(r.rejection_rate),
        )
        for r in reports
    ]
    reasons = list(dict.fromkeys(s for r in reports for s in r.failure_reasons))
    return _table(fmt, headers, "<" + ">" * 10, rows, None, [("failure", "Failures", reasons)])
