"""Rendering tests: aligned tables, tsv, and structured YAML reports."""

import yaml
import pytest

from doublelasso import DmlEstimate, FitFailure, render_coverage_reports, render_fit_results
from doublelasso.report import MULTIPLICITY_NOTE, REPORT_VERSION, percent_labels
from doublelasso.simulate import CoverageReport


def _est(treatment, alpha=0.5, se=0.1, warnings=(), **kw):
    fields = dict(
        treatment=treatment,
        family="logit",
        method="dml",
        n=500,
        alpha=alpha,
        std_error=se,
        ci_low=alpha - 1.96 * se,
        ci_high=alpha + 1.96 * se,
        p_value=0.0412,
        level=0.05,
        step1_support=("x1", "x2"),
        step2_support=("x1",),
        warnings=tuple(warnings),
    )
    fields.update(kw)
    return DmlEstimate(**fields)


# ---------------------------------------------------------------- labels


def test_percent_labels_at_five_percent():
    assert percent_labels(0.05) == ("2.5%", "97.5%")


def test_percent_labels_at_ten_percent():
    assert percent_labels(0.10) == ("5%", "95%")


def test_percent_labels_at_one_percent():
    assert percent_labels(0.01) == ("0.5%", "99.5%")


# ---------------------------------------------------------------- aligned


def test_aligned_header_column_order():
    text = render_fit_results([_est("d")], level=0.05)
    header = text.splitlines()[0].split()
    assert header == [
        "Treatment", "Coefficient", "p-value", "2.5%", "97.5%",
        "Std.", "Error", "Support1", "Support2", "Warn",
    ]


def test_aligned_fixed_decimals():
    text = render_fit_results([_est("d", alpha=1.23456, se=0.04999)], level=0.05)
    row = text.splitlines()[1]
    assert "1.235" in row
    assert "0.050" in row
    assert "1.23456" not in row


def test_aligned_decimals_parameter():
    text = render_fit_results([_est("d", alpha=1.23456)], level=0.05, decimals=1)
    assert "1.2" in text.splitlines()[1]
    assert "1.23" not in text.splitlines()[1]


def test_aligned_multiplicity_note_always_present_once():
    for results in ([_est("d")], [_est("a"), _est("b")]):
        text = render_fit_results(results, level=0.05)
        assert text.count(MULTIPLICITY_NOTE) == 1
        assert f"Note: {MULTIPLICITY_NOTE}." in text


def test_aligned_shared_warning_printed_once():
    w = "search boundary reached; estimate may be unstable"
    text = render_fit_results(
        [_est("a", warnings=(w,)), _est("b", warnings=(w,)), _est("c")],
        level=0.05,
    )
    assert text.count(w) == 1
    assert f"  - {w}" in text
    lines = text.splitlines()
    assert "Warnings:" in lines


def test_aligned_warning_marker_per_row():
    text = render_fit_results(
        [_est("flagged", warnings=("weights clipped",)), _est("clean")],
        level=0.05,
    )
    lines = text.splitlines()
    assert lines[1].startswith("flagged") and lines[1].rstrip().endswith("*")
    assert lines[2].startswith("clean") and not lines[2].rstrip().endswith("*")


def test_aligned_no_warning_section_when_clean():
    text = render_fit_results([_est("d")], level=0.05)
    assert "Warnings:" not in text


def test_aligned_failures_section():
    fail = FitFailure("bad", "DegenerateTreatmentError", "treatment is constant")
    text = render_fit_results([_est("ok"), fail], level=0.05)
    assert "Failures:" in text
    assert "  - bad: DegenerateTreatmentError: treatment is constant" in text


def test_aligned_support_counts_shown():
    row = render_fit_results([_est("d")], level=0.05).splitlines()[1]
    cells = row.split()
    assert cells[-2:] == ["2", "1"]


def test_aligned_rows_follow_input_order():
    names = [f"t{k:02d}" for k in range(26)]
    text = render_fit_results([_est(nm) for nm in names], level=0.05)
    lines = text.splitlines()
    got = [ln.split()[0] for ln in lines[1:27]]
    assert got == names


def test_aligned_level_changes_interval_headers():
    text = render_fit_results([_est("d", level=0.10)], level=0.10)
    header = text.splitlines()[0]
    assert "5%" in header and "95%" in header and "2.5%" not in header


# ---------------------------------------------------------------- tsv


def test_tsv_header_and_full_precision():
    e = _est("d", alpha=0.12345678901234566, se=0.04999)
    text = render_fit_results([e], level=0.05, fmt="tsv")
    lines = text.splitlines()
    assert lines[0].split("\t") == [
        "Treatment", "Coefficient", "p-value", "2.5%", "97.5%",
        "Std. Error", "Support1", "Support2", "Warn",
    ]
    cells = lines[1].split("\t")
    assert cells[0] == "d"
    assert cells[1] == repr(0.12345678901234566)
    assert float(cells[1]) == e.alpha


def test_tsv_comment_lines():
    fail = FitFailure("z", "WeakInstrumentError", "degenerate draw")
    text = render_fit_results(
        [_est("a", warnings=("weights clipped",)), fail],
        level=0.05,
        fmt="tsv",
    )
    assert f"# note: {MULTIPLICITY_NOTE}" in text.splitlines()
    assert "# warning: weights clipped" in text.splitlines()
    assert "# failed: z: WeakInstrumentError: degenerate draw" in text.splitlines()


def test_tsv_round_trips_through_float():
    e = _est("d", alpha=2.0 / 3.0, se=1.0 / 7.0)
    cells = render_fit_results([e], level=0.05, fmt="tsv").splitlines()[1].split("\t")
    assert float(cells[1]) == e.alpha
    assert float(cells[5]) == e.std_error


# ---------------------------------------------------------------- structured


def test_structured_document_shape():
    fail = FitFailure("z", "WeakInstrumentError", "degenerate draw")
    text = render_fit_results(
        [_est("d", warnings=("weights clipped",)), fail],
        level=0.05,
        fmt="structured",
    )
    doc = yaml.safe_load(text)
    assert doc["version"] == REPORT_VERSION
    assert doc["level"] == 0.05
    assert doc["note"] == MULTIPLICITY_NOTE
    (row,) = doc["rows"]
    assert row["treatment"] == "d"
    assert row["coefficient"] == 0.5
    assert row["support1"] == 2 and row["support2"] == 1
    assert row["warnings"] == ["weights clipped"]
    (failure,) = doc["failures"]
    assert failure == {
        "treatment": "z",
        "error": "WeakInstrumentError",
        "message": "degenerate draw",
    }


def test_structured_preserves_float_precision():
    e = _est("d", alpha=0.1234567890123456)
    doc = yaml.safe_load(render_fit_results([e], level=0.05, fmt="structured"))
    assert doc["rows"][0]["coefficient"] == e.alpha


# ---------------------------------------------------------------- coverage


def _report(method="dml", **kw):
    fields = dict(
        method=method,
        reps=500,
        successes=498,
        failures=2,
        alpha0=0.5,
        level=0.05,
        mean_bias=0.0123,
        median_bias=0.0101,
        sd=0.21,
        mean_se=0.2,
        coverage=0.946,
        mean_ci_width=0.784,
        rejection_rate=0.712,
        failure_reasons=("rep 3: WeakInstrumentError: degenerate draw",),
    )
    fields.update(kw)
    return CoverageReport(**fields)


def test_coverage_aligned_headers_and_values():
    text = render_coverage_reports([_report()])
    lines = text.splitlines()
    assert lines[0].split() == [
        "Method", "Reps", "OK", "Fail", "Mean", "Bias", "Median", "Bias",
        "SD", "Mean", "SE", "Coverage", "CI", "Width", "Reject",
    ]
    row = lines[1].split()
    assert row[0] == "dml"
    assert row[1:4] == ["500", "498", "2"]
    assert "0.946" in row


def test_coverage_aligned_failure_reasons_listed_once():
    reason = "rep 3: WeakInstrumentError: degenerate draw"
    text = render_coverage_reports([_report("dml"), _report("naive")])
    assert text.count(reason) == 1
    assert f"  - {reason}" in text


def test_coverage_tsv_full_precision():
    rep = _report(coverage=0.9459999999999999, failure_reasons=())
    lines = render_coverage_reports([rep], fmt="tsv").splitlines()
    cells = lines[1].split("\t")
    assert cells[0] == "dml"
    assert float(cells[8]) == rep.coverage


def test_coverage_structured_round_trip():
    text = render_coverage_reports(
        [_report("dml"), _report("naive", coverage=0.71)], fmt="structured"
    )
    doc = yaml.safe_load(text)
    methods = [row["method"] for row in doc["reports"]]
    assert methods == ["dml", "naive"]


def test_coverage_rows_follow_input_order():
    reports = [_report(f"m{k}", failure_reasons=()) for k in range(5)]
    lines = render_coverage_reports(reports).splitlines()
    assert [ln.split()[0] for ln in lines[1:6]] == [f"m{k}" for k in range(5)]


# ---------------------------------------------------------------- guards


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        render_fit_results([_est("d")], level=0.05, fmt="csv")
    with pytest.raises(ValueError, match="format"):
        render_coverage_reports([_report()], fmt="csv")


def test_negative_decimals_rejected():
    with pytest.raises(ValueError, match="decimals"):
        render_fit_results([_est("d")], level=0.05, decimals=-1)
    with pytest.raises(ValueError, match="decimals"):
        render_coverage_reports([_report()], decimals=-2)
