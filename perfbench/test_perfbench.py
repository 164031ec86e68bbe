"""Tests of the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys

import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import Op, OpResult  # noqa: E402
from tracing import Span  # noqa: E402


def result(op, output=b"", code=0):
    return OpResult(op=op, wall_s=1.0, cpu_s=1.0, returncode=code, output=output)


# --- arithmetic -------------------------------------------------------------


def test_throughput_is_units_over_elapsed_seconds():
    assert harness.throughput(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        harness.throughput(3, 0.0)


def test_median_of_odd_and_even_samples():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median(x for x in (4.0, 1.0, 3.0, 2.0)) == 2.5
    with pytest.raises(ValueError):
        harness.median([])


def test_closed_loop_runs_whole_rounds_one_op_at_a_time():
    ops = [Op("a", ()), Op("b", ()), Op("c", ())]
    running = []

    def execute(op):
        assert not running, "an op started before the previous one ended"
        running.append(op)
        running.pop()
        return result(op)

    results, elapsed = harness.closed_loop(iter([ops, ops]), execute, 0.0)
    assert [r.op.key for r in results] == ["a", "b", "c"]
    assert elapsed >= 0.0


def test_with_jobs_replaces_only_the_job_count():
    argv = ("fit", "--data", "x.csv", "--jobs", "2", "--format", "tsv")
    assert harness.with_jobs(argv, 1) == ("fit", "--data", "x.csv", "--jobs", "1",
                                          "--format", "tsv")
    assert harness.with_jobs(("fit",), 1) == ("fit",)


# --- spans --------------------------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child", 5.0, 6.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    agg = tracing.summarize_spans(spans)
    assert agg["child"] == {"n": 2, "total": 4.0, "self": 3.0}
    assert sum(tracing.self_times(spans)) == 10.0
    assert tracing.children_of(spans, "root") == 2


def test_tracer_nests_spans_and_tags_the_op():
    tracer = tracing.Tracer()
    tracer.op = 7
    inner = tracing.timed(tracer, "inner", lambda: None)
    tracing.timed(tracer, "outer", inner)()
    inner, outer = tracer.spans[1], tracer.spans[0]
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.op == outer.op == 7


def test_wrapper_returns_and_raises_exactly_as_the_function():
    tracer = tracing.Tracer()
    payload = object()
    error = KeyError("boom")
    seen = []

    def ok(a, *, b):
        return payload if (a, b) == (1, 2) else None

    def bad():
        raise error

    assert tracing.timed(tracer, "ok", ok, observe=seen.append)(1, b=2) is payload
    assert seen == [payload]
    with pytest.raises(KeyError) as info:
        tracing.timed(tracer, "bad", bad, observe=seen.append)()
    assert info.value is error
    assert seen == [payload]
    assert [s.name for s in tracer.spans] == ["ok", "bad"]
    assert tracing.timed(tracer, "ok", ok).__name__ == "ok"


def test_patched_restores_the_originals_even_when_the_block_raises():
    class Module:
        f = staticmethod(lambda: "original")

    with pytest.raises(RuntimeError):
        with tracing.patched([(Module, "f", lambda: "wrapped")]):
            assert Module.f() == "wrapped"
            raise RuntimeError
    assert Module.f() == "original"


def test_instrumented_fit_gives_the_same_bytes_and_records_each_layer(tmp_path):
    import doublelasso as dl
    from doublelasso import cli, dml, lasso

    demo = workloads.CliDemo(os.path.dirname(HERE), 1, 1.0)
    demo.prepare(dl, str(tmp_path))
    op = workloads.CliDemo.FIT_SPEC
    plain = harness.run_in_process(cli.main, op, str(tmp_path))
    tracer = tracing.Tracer()
    originals = (cli.load_table, dml.lasso_logistic, lasso.lasso_logistic)
    with tracing.patched(tracing.instrumentation(tracer)):
        traced = harness.run_in_process(tracing.timed(tracer, "cli", cli.main), op,
                                        str(tmp_path))
    assert (cli.load_table, dml.lasso_logistic, lasso.lasso_logistic) == originals
    assert traced.returncode == plain.returncode == 0
    assert traced.output == plain.output == workloads.README_FIT_TABLE
    names = {s.name for s in tracer.spans}
    assert {"cli", "encoding.load_table", "dml.multi", "dml.score", "lasso.logistic",
            "lasso.loadings", "lasso.wls", "glm.solve_spd"} <= names
    # lasso_logistic called from inside the loadings routine nests under it
    assert tracing.children_of(tracer.spans, "lasso.loadings") >= 1
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["encoding.cells"][0] == 60 * 7
    assert metrics["dml.score_evals"][0] > 0
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start)


# --- checks -------------------------------------------------------------------


def one_byte_changed(data: bytes) -> bytes:
    i = data.index(b"1.067")
    return data[:i] + b"2" + data[i + 1:]


def test_checks_catch_a_one_byte_change():
    good = workloads.README_FIT_TABLE
    bad = one_byte_changed(good)
    assert checks.same_bytes(good, good, "fit") == []
    assert checks.same_bytes(bad, good, "fit")
    assert checks.matches_digest(bad, harness.digest(good), "fit")
    assert checks.matches_digest(good, harness.digest(good), "fit") == []

    demo = workloads.CliDemo(".", 1, 1.0)
    assert demo.inspect(result(demo.FIT, good)) == (0, [])
    failed, problems = demo.inspect(result(demo.FIT, bad))
    assert failed == 1 and problems

    first, second = result(demo.FIT, good), result(demo.FIT, bad)
    assert [r for r, _ in checks.consistent_by_key([first, second])] == [second]


def test_fit_table_rejects_failure_rows_and_inverted_intervals():
    head = "Treatment\tCoefficient\tp-value\t2.5%\t97.5%\tStd. Error\tSupport1\tSupport2\tWarn"
    row = "d\t0.5\t0.01\t0.1\t0.9\t0.2\t3\t4\t"
    assert checks.fit_table(f"{head}\n{row}\n# note: x\n".encode(), 1) == []
    failed = f"{head}\n# failed: d: WeakInstrumentError: weak\n".encode()
    assert checks.fit_table(failed, 1) == ["fit report has 1 FitFailure rows"]
    inverted = f"{head}\nd\t0.5\t0.01\t0.9\t0.1\t0.2\t3\t4\t\n".encode()
    assert checks.fit_table(inverted, 1)
    assert checks.fit_table(f"{head}\n{row}\n".encode(), 2)


def test_binomial_band_holds_the_expected_count_and_excludes_far_counts():
    lo, hi = checks.binomial_band(40, 0.95)
    assert lo < 38 <= hi == 40
    assert checks.coverage_in_band(38, 40, 0.05, "dml") == []
    assert checks.coverage_in_band(20, 40, 0.05, "dml")
    assert checks.naive_below_dml((10, 40), (38, 40), "c") == []
    assert checks.naive_below_dml((38, 40), (38, 40), "c")


def report_bytes(covered, reps, methods=("dml",)):
    doc = {"version": 1, "reports": [
        {"method": m, "reps": reps, "successes": reps, "failures": 0,
         "coverage": covered / reps, "failure_reasons": []} for m in methods]}
    return yaml.safe_dump(doc).encode()


def test_study_checks_flag_out_of_band_coverage():
    study = workloads.StudyRegimes(".", 1, 1.0)
    op = study.op("sparse_logistic", 0)
    good = [result(op, report_bytes(19, 20)), result(study.op("sparse_logistic", 1),
                                                    report_bytes(20, 20))]
    assert study.finish(good) == (0, [])
    bad = [result(op, report_bytes(9, 20)), result(study.op("sparse_logistic", 1),
                                                   report_bytes(10, 20))]
    failed, problems = study.finish(bad)
    assert failed == 40 and "sparse_logistic dml coverage" in problems[0]


def test_study_inspect_counts_failed_replications():
    study = workloads.StudyRegimes(".", 1, 1.0)
    op = study.op("null_logistic", 0)
    doc = yaml.safe_load(report_bytes(18, 20))
    doc["reports"][0]["failure_reasons"] = ["rep 3: WeakInstrumentError: x",
                                            "rep 9: WeakInstrumentError: y"]
    failed, problems = study.inspect(result(op, yaml.safe_dump(doc).encode()))
    assert failed == 2 and problems
    assert study.inspect(result(op, b"", code=2))[0] == 20
