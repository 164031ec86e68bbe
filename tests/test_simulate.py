"""Synthetic designs, paired replication studies, and their serialization."""

import dataclasses

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from doublelasso import (
    DgpSpec,
    DmlConfig,
    FitFailure,
    PenaltyConfig,
    SchemaError,
    StudySpec,
    confounded_benchmark,
    dml_multi,
    gen_dgp,
    null_logistic_benchmark,
    run_study,
    sparse_linear_benchmark,
    sparse_logistic_benchmark,
    study_spec_to_yaml,
)
from doublelasso import simulate
from doublelasso.simulate import (
    CoverageReport,
    coverage_reports_from_yaml,
    coverage_reports_to_yaml,
    dataset_checksum,
    run_replications,
    study_spec_from_yaml,
    summarize,
)

LOGIT_NULL = DgpSpec(family="logistic", n=2000, p=8, alpha0=0.0,
                     beta_magnitude=0.0, beta_sparsity=0)


def _linear_spec(**kw):
    base = dict(family="linear", n=150, p=10, alpha0=0.5,
                beta_magnitude=0.4, beta_sparsity=3,
                gamma_magnitude=0.3, gamma_sparsity=2)
    base.update(kw)
    return DgpSpec(**base)


class TestGenDgp:
    def test_same_seed_reproduces_the_draw_bit_for_bit(self):
        spec = _linear_spec()
        a, ta = gen_dgp(spec, seed=11)
        b, tb = gen_dgp(spec, seed=11)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.design, b.design)
        assert dataset_checksum(a) == dataset_checksum(b)
        assert ta.seed == tb.seed == 11

    def test_different_seeds_differ(self):
        spec = _linear_spec()
        a, _ = gen_dgp(spec, seed=1)
        b, _ = gen_dgp(spec, seed=2)
        assert dataset_checksum(a) != dataset_checksum(b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            gen_dgp(_linear_spec(), seed=-1)

    def test_seed_of_2_to_the_64_rejected(self):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            gen_dgp(_linear_spec(), seed=2**64)

    def test_column_layout(self):
        ds, _ = gen_dgp(_linear_spec(p=4), seed=0)
        assert ds.column_names == ("d", "x1", "x2", "x3", "x4")
        assert ds.treatment_names == ("d",)
        assert ds.outcome_name == "y"

    def test_truth_record_carries_the_coefficient_vectors(self):
        spec = _linear_spec(p=6, beta_pattern="geometric", beta_magnitude=1.0,
                            beta_decay=0.5, gamma_pattern="custom",
                            gamma_custom=(1.0, 0.0, 0.0, 2.0, 0.0, 0.0))
        _, truth = gen_dgp(spec, seed=3)
        np.testing.assert_allclose(truth.beta, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
        np.testing.assert_allclose(truth.gamma, [1.0, 0.0, 0.0, 2.0, 0.0, 0.0])

    def test_unconfounded_treatment_is_uncorrelated_with_controls(self):
        spec = _linear_spec(n=2000, p=10, gamma_magnitude=0.0, gamma_sparsity=0)
        ds, _ = gen_dgp(spec, seed=4)
        d = ds.design[:, 0]
        X = ds.design[:, 1:]
        corr = [abs(float(np.corrcoef(d, X[:, j])[0, 1])) for j in range(10)]
        assert max(corr) < 0.1

    def test_null_logistic_outcome_is_balanced(self):
        ds, _ = gen_dgp(LOGIT_NULL, seed=5)
        assert 0.45 <= float(ds.y.mean()) <= 0.55
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_linear_noise_scale_is_respected(self):
        spec = _linear_spec(n=4000, noise_sd=2.0)
        ds, truth = gen_dgp(spec, seed=6)
        index = truth.intercept + truth.alpha0 * ds.design[:, 0] \
            + ds.design[:, 1:] @ truth.beta
        resid_sd = float(np.std(ds.y - index))
        assert abs(resid_sd - 2.0) < 0.2

    def test_ar1_controls_have_the_requested_lag_correlation(self):
        spec = _linear_spec(n=4000, p=12, x_corr="ar1", rho=0.6)
        ds, _ = gen_dgp(spec, seed=7)
        X = ds.design[:, 1:]
        lag = [float(np.corrcoef(X[:, j], X[:, j + 1])[0, 1]) for j in range(11)]
        assert abs(float(np.mean(lag)) - 0.6) < 0.05
        assert abs(float(np.std(X))) == pytest.approx(1.0, abs=0.05)

    def test_exchangeable_controls_share_one_correlation(self):
        spec = _linear_spec(n=4000, p=8, x_corr="exchangeable", rho=0.3)
        ds, _ = gen_dgp(spec, seed=8)
        X = ds.design[:, 1:]
        C = np.corrcoef(X, rowvar=False)
        off = C[~np.eye(8, dtype=bool)]
        assert abs(float(off.mean()) - 0.3) < 0.05

    def test_independent_controls_are_uncorrelated(self):
        ds, _ = gen_dgp(_linear_spec(n=4000, p=8), seed=9)
        C = np.corrcoef(ds.design[:, 1:], rowvar=False)
        off = C[~np.eye(8, dtype=bool)]
        assert float(np.max(np.abs(off))) < 0.08


class TestDgpSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            DgpSpec(family="poisson", n=10, p=2, alpha0=0.0)

    def test_custom_pattern_needs_a_full_vector(self):
        with pytest.raises(ValueError, match="length-p"):
            _linear_spec(beta_pattern="custom", beta_custom=(1.0,))

    def test_sparsity_cannot_exceed_dimension(self):
        with pytest.raises(ValueError, match="sparsity"):
            _linear_spec(p=3, beta_sparsity=4)

    def test_geometric_decay_must_be_fractional(self):
        with pytest.raises(ValueError, match="decay"):
            _linear_spec(beta_pattern="geometric", beta_decay=1.0)

    def test_exchangeable_correlation_must_stay_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            _linear_spec(p=5, x_corr="exchangeable", rho=-0.3)

    def test_rho_must_be_a_proper_correlation(self):
        with pytest.raises(ValueError, match="rho"):
            _linear_spec(x_corr="ar1", rho=1.0)


class TestRunReplications:
    def test_methods_share_each_replication_draw(self):
        spec = _linear_spec()
        study = StudySpec(dgp=spec, reps=2, methods=("dml", "naive"), base_seed=123)
        results = run_replications(study)
        for r in range(2):
            ds, _ = gen_dgp(spec, seed=123 + r)
            for m in ("dml", "naive"):
                direct = dml_multi(ds, family="linear", method=m,
                                   treatments=("d",), config=DmlConfig())[0]
                assert results[m][r].alpha == direct.alpha
                assert results[m][r].std_error == direct.std_error

    def test_job_count_does_not_change_results(self, pool_always):
        study = StudySpec(dgp=_linear_spec(n=120, p=6), reps=4, methods=("dml",))
        a = run_replications(study, jobs=1)
        b = run_replications(study, jobs=3)
        assert [e.alpha for e in a["dml"]] == [e.alpha for e in b["dml"]]

    def test_cv_studies_count_their_solves_in_the_pool_cutoff(self, pool_refused):
        # 40 x 120 x 7 = 34k cells: serial for one plug-in solve per step,
        # 10M cells for the 301 solves of a 10-fold, 30-level CV step.
        study = StudySpec(dgp=_linear_spec(n=120, p=6), reps=40)
        assert len(run_replications(study, jobs=2)["dml"]) == 40
        cv = DmlConfig(penalty=PenaltyConfig(method="cv"))
        with pytest.raises(pool_refused):
            run_replications(study, config=cv, jobs=2)

    def test_single_replication_coverage_is_zero_or_one(self):
        study = StudySpec(dgp=_linear_spec(n=120, p=6), reps=1)
        (report,) = run_study(study)
        assert report.coverage in (0.0, 1.0)
        assert report.reps == 1

    def test_study_level_overrides_the_config(self):
        study = StudySpec(dgp=_linear_spec(n=120, p=6), reps=1, level=0.10)
        results = run_replications(study, config=DmlConfig(level=0.05))
        assert results["dml"][0].level == 0.10

    def test_bad_job_count_rejected(self):
        study = StudySpec(dgp=_linear_spec(), reps=1)
        with pytest.raises(ValueError):
            run_replications(study, jobs=0)


class TestStudySpecValidation:
    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            StudySpec(dgp=_linear_spec(), reps=0)

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            StudySpec(dgp=_linear_spec(), reps=1, methods=("dml", "dml"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            StudySpec(dgp=_linear_spec(), reps=1, methods=("bayes",))

    def test_last_replication_seed_must_be_below_2_to_the_64(self):
        assert StudySpec(dgp=_linear_spec(), reps=3, base_seed=2**64 - 3).base_seed == 2**64 - 3
        with pytest.raises(ValueError, match=r"base_seed \+ reps - 1 must be below 2\*\*64"):
            StudySpec(dgp=_linear_spec(), reps=3, base_seed=2**64 - 2)


class TestSummarize:
    def test_accounting_identity_and_failure_reasons(self):
        study = StudySpec(dgp=_linear_spec(n=120, p=6), reps=3)
        results = run_replications(study)
        results["dml"][1] = FitFailure(treatment="d", error="WeakInstrumentError",
                                       message="degenerate draw")
        (report,) = summarize(study, results)
        assert report.reps == 3
        assert report.successes == 2 and report.failures == 1
        assert report.failure_reasons == ("rep 1: WeakInstrumentError: degenerate draw",)

    def test_rejection_rate_uses_a_strict_threshold(self):
        study = StudySpec(dgp=_linear_spec(n=120, p=6), reps=2)
        results = run_replications(study)
        doctored = [
            dataclasses.replace(results["dml"][0], p_value=study.level),
            dataclasses.replace(results["dml"][1], p_value=study.level - 1e-12),
        ]
        (report,) = summarize(study, {"dml": doctored})
        assert report.rejection_rate == 0.5

    def test_all_failures_give_a_zeroed_report(self):
        study = StudySpec(dgp=_linear_spec(), reps=1)
        fail = FitFailure(treatment="d", error="X", message="boom")
        (report,) = summarize(study, {"dml": [fail]})
        assert report.successes == 0
        assert report.coverage == 0.0 and report.mean_se == 0.0

    def test_report_accounting_is_enforced(self):
        with pytest.raises(ValueError, match="successes"):
            CoverageReport(
                method="dml", reps=3, successes=1, failures=1, alpha0=0.0,
                level=0.05, mean_bias=0.0, median_bias=0.0, sd=0.0, mean_se=0.0,
                coverage=0.0, mean_ci_width=0.0, rejection_rate=0.0,
            )


class TestStudyYaml:
    def test_round_trip_first_s(self):
        study = StudySpec(dgp=_linear_spec(), reps=7, methods=("dml", "naive"),
                          level=0.1, base_seed=42)
        assert study_spec_from_yaml(study_spec_to_yaml(study)) == study

    def test_round_trip_geometric_and_custom(self):
        spec = DgpSpec(
            family="linear", n=150, p=10, alpha0=0.5,
            beta_pattern="geometric", beta_magnitude=0.8, beta_decay=0.7,
            gamma_pattern="custom",
            gamma_custom=tuple(float(j) for j in range(10)),
            x_corr="ar1", rho=0.25,
        )
        study = StudySpec(dgp=spec, reps=3)
        assert study_spec_from_yaml(study_spec_to_yaml(study)) == study

    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            study_spec_from_yaml("reps: 3\ndgp: {family: linear, n: 10, p: 2, alpha0: 0}\n")

    def test_unknown_key_rejected(self):
        text = study_spec_to_yaml(StudySpec(dgp=_linear_spec(), reps=1)) + "plots: yes\n"
        with pytest.raises(SchemaError, match="unknown keys"):
            study_spec_from_yaml(text)

    def test_unknown_pattern_rejected(self):
        text = (
            "version: 1\nreps: 1\n"
            "dgp:\n  family: linear\n  n: 10\n  p: 2\n  alpha0: 0.0\n"
            "  beta: {pattern: spike}\n"
        )
        with pytest.raises(SchemaError, match="pattern"):
            study_spec_from_yaml(text)

    def test_invalid_field_value_reported_as_schema_error(self):
        text = (
            "version: 1\nreps: 0\n"
            "dgp: {family: linear, n: 10, p: 2, alpha0: 0.0}\n"
        )
        with pytest.raises(SchemaError):
            study_spec_from_yaml(text)


    # (pattern, the pattern keys the YAML gives); every other key is left out
    PATTERN_KEYS_GIVEN = [
        ("first-s", {}), ("first-s", {"magnitude": 0.5}), ("first-s", {"sparsity": 2}),
        ("geometric", {}), ("geometric", {"magnitude": 0.5}), ("geometric", {"decay": 0.25}),
        ("custom", {"values": [0.5] * 10}),
    ]

    @pytest.mark.parametrize("what", ["beta", "gamma"])
    @pytest.mark.parametrize("pattern, given", PATTERN_KEYS_GIVEN)
    def test_a_pattern_key_left_out_takes_the_library_default(self, what, pattern, given):
        base = dict(family="linear", n=150, p=10, alpha0=0.5)
        text = yaml.safe_dump({"version": 1, "reps": 1,
                               "dgp": {**base, what: {"pattern": pattern, **given}}})
        fields = {f"{what}_{'custom' if key == 'values' else key}": value
                  for key, value in given.items()}
        assert study_spec_from_yaml(text).dgp == DgpSpec(
            **base, **{f"{what}_pattern": pattern}, **fields)

    def test_first_s_beta_without_sparsity_fails_below_five_controls_as_the_library_does(self):
        text = ("version: 1\nreps: 1\ndgp: {family: linear, n: 10, p: 3, alpha0: 0,"
                " beta: {pattern: first-s}}\n")
        with pytest.raises(ValueError, match=r"beta sparsity must lie in \[0, p\]"):
            DgpSpec(family="linear", n=10, p=3, alpha0=0.0)
        with pytest.raises(SchemaError, match=r"beta sparsity must lie in \[0, p\]"):
            study_spec_from_yaml(text)

    @pytest.mark.parametrize("dgp, key", [
        ("{family: linear, n: [1, 2], p: 2, alpha0: 0}", "n"),
        ("{family: linear, n: 10, p: 2, alpha0: 0, beta: {pattern: custom, values: 3}}",
         "values"),
        ("{family: linear, n: 10, p: 2, alpha0: {a: 1}}", "alpha0"),
        ("{family: linear, n: 10, p: 2, alpha0: 0, gamma: [first-s]}", "gamma"),
        ("{family: linear, n: 10, p: 2, alpha0: 0, gamma: {pattern: [first-s]}}", "pattern"),
        ("[linear]", "dgp"),
        ("{family: linear, n: 200.9, p: 5, alpha0: 0}", "n"),
        ("{family: linear, n: 10, p: 5, alpha0: true}", "alpha0"),
        ("{family: linear, n: 10, p: 5, alpha0: 0, beta: {pattern: first-s, sparsity: 2.9}}",
         "sparsity"),
        ("{family: linear, n: 10, p: 1, alpha0: 0, beta: {pattern: custom, values: '1'}}",
         "values"),
    ])
    def test_a_value_of_the_wrong_yaml_type_is_a_schema_error(self, dgp, key):
        with pytest.raises(SchemaError, match=key):
            study_spec_from_yaml(f"version: 1\nreps: 1\ndgp: {dgp}\n")

    @pytest.mark.parametrize("line, key", [
        ("reps: 2.9", "reps"), ("reps: true", "reps"), ("methods: dml", "methods"),
        ("level: '0.05'", "level"), ("version: true", "version"),
    ])
    def test_a_top_level_value_of_the_wrong_yaml_type_is_a_schema_error(self, line, key):
        doc = {"version": 1, "reps": 1, **yaml.safe_load(line)}
        doc["dgp"] = {"family": "linear", "n": 10, "p": 5, "alpha0": 0.0}
        with pytest.raises(SchemaError, match=key):
            study_spec_from_yaml(yaml.safe_dump(doc))

    @pytest.mark.parametrize("top, dgp, message", [
        ("level: .nan", "", "study: level must be a finite number, got nan"),
        ("max_failure_rate: .inf", "", "study: max_failure_rate must be a finite number, got inf"),
        ("", "alpha0: .nan", "dgp: alpha0 must be a finite number, got nan"),
        ("", "alpha0: 0, noise_sd: .inf", "dgp: noise_sd must be a finite number, got inf"),
        ("", "alpha0: 0, rho: -.inf", "dgp: rho must be a finite number, got -inf"),
        ("", "alpha0: 0, beta: {pattern: first-s, magnitude: .inf, sparsity: 2}",
         "beta: magnitude must be a finite number, got inf"),
        ("", "alpha0: 0, gamma: {pattern: geometric, magnitude: 1, decay: .nan}",
         "gamma: decay must be a finite number, got nan"),
        ("", "alpha0: 0, beta: {pattern: custom, values: [1, .nan, 0, 0, 0]}",
         "beta: values must be a list, each item a finite number, got [1, nan, 0, 0, 0]"),
    ], ids=["level", "max_failure_rate", "alpha0", "noise_sd", "rho", "first-s-magnitude",
            "geometric-decay", "custom-values"])
    def test_a_non_finite_number_is_a_schema_error_that_names_the_key(self, top, dgp, message):
        text = f"version: 1\nreps: 1\n{top}\ndgp: {{family: linear, n: 10, p: 5, {dgp}}}\n"
        with pytest.raises(SchemaError) as err:
            study_spec_from_yaml(text)
        assert str(err.value) == message

    def test_an_integral_number_reads_as_an_integer(self):
        study = study_spec_from_yaml("version: 1\nreps: 3.0\n"
                                     "dgp: {family: linear, n: 10.0, p: 5, alpha0: 0}\n")
        assert (study.reps, study.dgp.n) == (3, 10)
        assert type(study.reps) is int and type(study.dgp.n) is int

    def test_a_missing_required_key_is_named(self):
        with pytest.raises(SchemaError, match="dgp is missing n, alpha0"):
            study_spec_from_yaml("version: 1\nreps: 1\ndgp: {family: linear, p: 2}\n")
        with pytest.raises(SchemaError, match="study spec is missing reps"):
            study_spec_from_yaml("version: 1\ndgp: {family: linear, n: 5, p: 8, alpha0: 0}\n")

    @pytest.mark.parametrize("beta_pattern", ["first-s", "geometric", "custom"])
    @pytest.mark.parametrize("gamma_pattern", ["first-s", "geometric", "custom"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_yaml_round_trip_property(self, beta_pattern, gamma_pattern, data):
        numbers = st.floats(-10.0, 10.0, allow_nan=False)
        p = data.draw(st.integers(1, 8))
        fields = {}
        for what, pattern in (("beta", beta_pattern), ("gamma", gamma_pattern)):
            fields[f"{what}_pattern"] = pattern
            if pattern == "custom":
                fields[f"{what}_custom"] = tuple(data.draw(st.lists(numbers, min_size=p,
                                                                    max_size=p)))
            else:
                fields[f"{what}_magnitude"] = data.draw(numbers)
            if pattern == "first-s":
                fields[f"{what}_sparsity"] = data.draw(st.integers(0, p))
            if pattern == "geometric":
                fields[f"{what}_decay"] = data.draw(st.floats(0.01, 0.99))
        try:
            study = StudySpec(
                dgp=DgpSpec(
                    family=data.draw(st.sampled_from(["linear", "logistic"])),
                    n=data.draw(st.integers(2, 10**6)), p=p, alpha0=data.draw(numbers),
                    nu=data.draw(st.floats(0.01, 10.0)),
                    x_corr=data.draw(st.sampled_from(["independent", "exchangeable", "ar1"])),
                    rho=data.draw(st.floats(-0.99, 0.99)), intercept=data.draw(numbers),
                    noise_sd=data.draw(st.floats(0.01, 10.0)), **fields,
                ),
                reps=data.draw(st.integers(1, 10**4)),
                methods=data.draw(st.sampled_from([("dml",), ("naive",), ("dml", "naive"),
                                                   ("naive", "dml")])),
                level=data.draw(st.floats(0.001, 0.5)),
                base_seed=data.draw(st.integers(0, 2**63)),
                max_failure_rate=data.draw(st.floats(0.0, 1.0)),
            )
        except ValueError:  # an exchangeable rho below -1/(p - 1)
            assume(False)
        assert study_spec_from_yaml(study_spec_to_yaml(study)) == study


class TestKeyTables:
    def test_the_study_table_names_the_study_fields(self):
        assert set(simulate._STUDY_KEYS) == {f.name for f in dataclasses.fields(StudySpec)}

    def test_the_dgp_and_pattern_tables_name_the_dgp_fields(self):
        keys = set(simulate._DGP_KEYS) - {"beta", "gamma"}
        for what in ("beta", "gamma"):
            keys.add(f"{what}_pattern")
            keys |= {simulate._field(what, key)
                     for pattern in simulate._PATTERNS.values() for key in pattern}
        assert keys == {f.name for f in dataclasses.fields(DgpSpec)}


class TestCoverageReportYaml:
    def test_round_trip(self):
        report = CoverageReport(
            method="dml", reps=5, successes=4, failures=1, alpha0=0.5,
            level=0.05, mean_bias=0.01, median_bias=0.005, sd=0.1,
            mean_se=0.09, coverage=0.75, mean_ci_width=0.35,
            rejection_rate=1.0, failure_reasons=("rep 2: X: boom",),
        )
        (back,) = coverage_reports_from_yaml(coverage_reports_to_yaml((report,)))
        assert back == report

    @pytest.mark.parametrize("reports, message", [
        ("[{method: dml}]", "bad entry in coverage report: needs exactly the keys method, reps,"),
        ("5", "coverage report: reports must be a list, got 5"),
        ("[7]", "coverage report: reports must be a list, each item a mapping, got [7]"),
    ], ids=["missing-keys", "scalar", "scalar-entry"])
    def test_a_bad_reports_value_is_a_schema_error(self, reports, message):
        with pytest.raises(SchemaError) as err:
            coverage_reports_from_yaml(f"version: 1\nreports: {reports}\n")
        assert str(err.value).startswith(message)


class TestBenchmarks:
    def test_benchmark_shapes(self):
        conf = confounded_benchmark()
        assert conf.methods == ("dml", "naive")
        assert conf.dgp.family == "linear"
        assert conf.reps == 500
        logi = sparse_logistic_benchmark()
        assert logi.dgp.family == "logistic"
        lin = sparse_linear_benchmark()
        assert lin.dgp.family == "linear"
        assert lin.dgp.alpha0 == logi.dgp.alpha0
        null = null_logistic_benchmark()
        assert null.dgp.alpha0 == 0.0

    def test_confounding_breaks_single_selection_but_not_double(self, confounded_study):
        _, _, reports = confounded_study
        dml_rep = reports["dml"]
        naive_rep = reports["naive"]
        assert dml_rep.coverage >= 0.90
        assert naive_rep.coverage < 0.85
        assert abs(naive_rep.mean_bias) >= 2.0 * abs(dml_rep.mean_bias)

    def test_sparse_logistic_interval_is_wellcalibrated(self, sparse_logit_study):
        _, results, reports = sparse_logit_study
        assert reports["dml"].failures == 0
        # per-replication estimates carry their own audit identities
        sample = results["dml"][:25]
        for est in sample:
            assert est.diagnostics["weight_identity_err"] <= 1e-12
            assert est.diagnostics["grid_gap"] <= 1e-15

    def test_null_study_rejection_matches_its_level(self, null_logit_study):
        _, results, reports = null_logit_study
        report = reports["dml"]
        pvals = [e.p_value for e in results["dml"] if not isinstance(e, FitFailure)]
        assert report.rejection_rate == pytest.approx(
            float(np.mean(np.array(pvals) < report.level)), abs=1e-12
        )
