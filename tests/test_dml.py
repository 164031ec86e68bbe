"""Treatment-effect estimators: scoring objective, fits, guards, batching."""

import dataclasses
import hashlib
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from doublelasso import dml, lasso
from doublelasso import (
    DegenerateMomentError,
    DegenerateOutcomeError,
    DegenerateTreatmentError,
    DmlConfig,
    FitFailure,
    PenaltyConfig,
    RankDeficiencyError,
    WeakInstrumentError,
    dml_linear,
    dml_logit,
    dml_multi,
    naive_linear,
    naive_logit,
)
from doublelasso.dml import iv_logit_objective
from doublelasso.encoding import (
    ColumnInfo,
    Dataset,
    encode,
    synthetic_survey_schema,
    synthetic_survey_table,
)


def _logit_dgp(seed, n=500, p=20, alpha0=0.5, k_beta=3, k_gamma=3, rho=0.3):
    """Sparse logistic data with confounding, generated independently here."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    gamma = np.zeros(p)
    gamma[:k_gamma] = rho
    d = X @ gamma + rng.normal(size=n)
    beta = np.zeros(p)
    beta[:k_beta] = 0.4
    eta = alpha0 * d + X @ beta
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return y, d, X


class TestIvLogitObjective:
    def test_single_observation_hand_value(self):
        # y=1, eta chosen so G=0.75, z=2: numerator (0.25*2)^2 = 0.25,
        # denominator (0.25*2)^2 = 0.25, ratio exactly 1.
        y = np.array([1.0])
        d = np.array([1.0])
        eta = np.array([0.0])
        got = iv_logit_objective(math.log(3.0), y, d, eta, np.array([2.0]))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_constant_instrument_rescaling(self):
        y, d, X = _logit_dgp(1, n=100, p=4)
        eta = 0.1 * X[:, 0]
        z = X[:, 1] + 0.5
        a = iv_logit_objective(0.3, y, d, eta, z)
        b = iv_logit_objective(0.3, y, d, eta, 17.0 * z)
        assert a == pytest.approx(b, rel=1e-12)

    def test_nonnegative_everywhere(self):
        y, d, X = _logit_dgp(2, n=80, p=3)
        eta = np.zeros(80)
        z = X[:, 0]
        for a in np.linspace(-2, 2, 9):
            assert iv_logit_objective(float(a), y, d, eta, z) >= 0.0

    def test_zero_instrument_is_degenerate(self):
        y = np.array([0.0, 1.0])
        with pytest.raises(DegenerateMomentError):
            iv_logit_objective(0.0, y, y, np.zeros(2), np.zeros(2))


def _one_dimensional_objective(alpha, y, d, eta, z):
    """The step-3 objective as plain one-dimensional arithmetic, one point."""
    from doublelasso.glm import link
    rz = (y - link(float(alpha) * d + eta)) * z
    num = float(np.mean(rz))
    den = float(np.mean(rz * rz))
    return num * num / den


def _score_instance(seed, n, treatment="heavy-tailed"):
    """Odd-sized, heavy-tailed inputs with |eta| reaching 40.

    `treatment` "0/1" makes d a 0/1 column, "signed-zero" sets a third of
    its cells to 0.0 and a third to -0.0 (with eta at +-0.0 on some of
    them), and "heavy-tailed" leaves every cell nonzero.
    """
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(float)
    d = rng.standard_t(2, size=n)
    eta = np.clip(8.0 * rng.standard_t(1, size=n), -40.0, 40.0)
    eta[0] = 40.0 if seed % 2 else -40.0
    z = rng.standard_t(3, size=n)
    if treatment == "0/1":
        d = (d > 0.0).astype(float)
    elif treatment == "signed-zero":
        d[1::3] = 0.0
        d[2::3] = -0.0
        eta[1::4] = -0.0
        eta[2::8] = 0.0
    return y, d, eta, z


class TestScoreGrid:
    @pytest.mark.parametrize("treatment", ["heavy-tailed", "0/1", "signed-zero"])
    @pytest.mark.parametrize("points", [3, 401, dml._SCORE_BLOCK + 1, dml._SCORE_BLOCK + 2])
    @pytest.mark.parametrize("n", [1, 7, 501, 2001])
    def test_blocked_grid_equals_the_scalar_loop_bitwise(self, points, n, treatment):
        y, d, eta, z = _score_instance(points * 7 + n, n, treatment)
        grid = np.linspace(-2.5, 3.5, points)
        got = dml._score_grid(grid, y, d, eta, z)
        scalar = np.array([iv_logit_objective(float(a), y, d, eta, z) for a in grid])
        plain = np.array([_one_dimensional_objective(a, y, d, eta, z) for a in grid])
        assert got.shape == (points,)
        assert np.array_equal(got.view(np.int64), scalar.view(np.int64))
        assert np.array_equal(got.view(np.int64), plain.view(np.int64))

    def test_zero_denominator_raises_the_scalar_error_from_the_grid(self):
        y, d, eta, _ = _score_instance(5, 9)
        z = np.zeros(9)
        with pytest.raises(DegenerateMomentError) as scalar:
            iv_logit_objective(0.0, y, d, eta, z)
        with pytest.raises(DegenerateMomentError) as grid:
            dml._score_grid(np.linspace(-1.0, 1.0, 401), y, d, eta, z)
        assert str(grid.value) == str(scalar.value)

    def test_fit_reports_the_scalar_objective_at_its_estimate(self, monkeypatch):
        y, d, X = _logit_dgp(21, n=301, p=12)
        monkeypatch.setattr(dml, "GRID_POINTS", dml._SCORE_BLOCK + 1)
        est = dml_logit(y, d, X)
        a = est.artifacts
        grid = np.linspace(est.diagnostics["search_lo"], est.diagnostics["search_hi"],
                           dml._SCORE_BLOCK + 1)
        scalar = np.array([iv_logit_objective(float(g), y, d, a.eta_tilde, a.z_hat)
                           for g in grid])
        best = min(float(scalar.min()),
                   iv_logit_objective(est.alpha, y, d, a.eta_tilde, a.z_hat))
        assert est.diagnostics["objective_value"] == best


class TestDmlLogit:
    def test_estimate_satisfies_its_own_reported_interval(self):
        y, d, X = _logit_dgp(3)
        est = dml_logit(y, d, X)
        assert est.ci_low <= est.alpha <= est.ci_high
        assert est.std_error > 0
        assert 0.0 <= est.p_value <= 1.0
        assert est.family == "logit" and est.method == "dml"
        assert est.n == y.size

    def test_pvalue_and_interval_agree_about_zero(self):
        for seed in range(12):
            y, d, X = _logit_dgp(100 + seed, alpha0=0.0 if seed % 2 else 0.5)
            est = dml_logit(y, d, X)
            inside = est.ci_low <= 0.0 <= est.ci_high
            if abs(est.p_value - est.level) > 1e-10:
                assert (est.p_value < est.level) == (not inside)

    def test_interval_width_matches_the_normal_quantile(self):
        y, d, X = _logit_dgp(4)
        est = dml_logit(y, d, X)
        q = oracles.normal_quantile(0.975)
        width = est.ci_high - est.ci_low
        assert width == pytest.approx(2.0 * q * est.std_error, rel=1e-10)
        assert est.diagnostics["ci_width_err"] <= 1e-10

    def test_pvalue_matches_the_normal_tail(self):
        y, d, X = _logit_dgp(5)
        est = dml_logit(y, d, X)
        want = 2.0 * float(stats.norm.sf(abs(est.alpha) / est.std_error))
        assert est.p_value == pytest.approx(want, abs=1e-12)

    def test_internal_identities_hold_on_a_fit(self):
        y, d, X = _logit_dgp(6, n=600, p=30)
        est = dml_logit(y, d, X)
        a = est.artifacts
        # weights: f^2 sigma^2 reproduces w^2 to machine precision
        assert float(np.max(np.abs(a.f_hat**2 * a.sigma2_hat - a.w_hat**2))) <= 1e-12
        assert est.diagnostics["weight_identity_err"] <= 1e-12
        assert np.all(a.sigma2_hat > 0) and np.all(a.sigma2_hat <= 0.25)
        # the step-2 residual is orthogonal to the weighted refit columns
        assert est.diagnostics["step2_orth_max"] <= 1e-6
        # the refined minimizer never loses to the grid
        assert est.diagnostics["grid_gap"] <= 1e-15
        # the reported objective is reproducible from the artifacts
        obj = iv_logit_objective(est.alpha, y, d, a.eta_tilde, a.z_hat)
        assert obj == pytest.approx(est.diagnostics["objective_value"], rel=1e-12)
        # the coefficient stays inside the declared search interval
        assert est.diagnostics["search_lo"] <= est.alpha <= est.diagnostics["search_hi"]

    def test_standard_error_reproducible_from_artifacts(self):
        from doublelasso.glm import link, link_deriv
        y, d, X = _logit_dgp(7)
        est = dml_logit(y, d, X)
        a = est.artifacts
        m = est.alpha * d + a.eta_tilde
        den = float(np.mean(((y - link(m)) * a.z_hat) ** 2))
        jac = float(np.mean(link_deriv(m) * d * a.z_hat))
        want = math.sqrt(den) / abs(jac) / math.sqrt(y.size)
        assert est.std_error == pytest.approx(want, rel=1e-12)

    def test_repeated_fits_are_bit_identical(self):
        y, d, X = _logit_dgp(8)
        e1 = dml_logit(y, d, X)
        e2 = dml_logit(y, d, X)
        assert e1.alpha == e2.alpha
        assert e1.std_error == e2.std_error
        assert e1.p_value == e2.p_value
        assert e1.diagnostics == e2.diagnostics

    def test_narrow_search_interval_flags_the_boundary(self, monkeypatch):
        y, d, X = _logit_dgp(9, rho=0.8)
        monkeypatch.setattr(dml, "_SEARCH_WIDTH", 1e-4)
        est = dml_logit(y, d, X)
        assert est.diagnostics["boundary_hit"]
        assert any("boundary" in w for w in est.warnings)

    def test_sigma_scaling_variant_runs_and_changes_the_instrument(self):
        y, d, X = _logit_dgp(10)
        base = dml_logit(y, d, X)
        var = dml_logit(y, d, X, config=DmlConfig(instrument_scaling="sigma"))
        assert math.isfinite(var.alpha)
        assert var.diagnostics["mean_z2"] != base.diagnostics["mean_z2"]
        # both scalings chase the same moment; estimates stay close
        assert abs(var.alpha - base.alpha) < 3.0 * base.std_error

    def test_recovers_a_moderate_effect_without_confounding(self):
        # X carries no signal at all, so every selection step should stay
        # (nearly) empty and the estimate should center on the truth.
        alphas = []
        covered = 0
        for seed in range(200):
            rng = np.random.default_rng(70_000 + seed)
            n, p = 2000, 50
            X = rng.normal(size=(n, p))
            d = rng.normal(size=n)
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.5 * d))).astype(float)
            est = dml_logit(y, d, X)
            alphas.append(est.alpha)
            covered += est.ci_low <= 0.5 <= est.ci_high
        assert abs(float(np.mean(alphas)) - 0.5) <= 0.05
        assert covered >= 180  # nominal 95% interval, demand at least 90%

    def test_null_pvalues_look_uniform(self, null_logit_study):
        _, results, _ = null_logit_study
        pvals = [est.p_value for est in results["dml"] if not isinstance(est, FitFailure)]
        ks = stats.kstest(pvals, "uniform")
        assert ks.statistic < 0.1

    def test_constant_treatment_rejected(self):
        y, _, X = _logit_dgp(11, n=100, p=3)
        with pytest.raises(DegenerateTreatmentError):
            dml_logit(y, np.ones(100), X)

    def test_constant_outcome_rejected(self):
        _, d, X = _logit_dgp(12, n=100, p=3)
        with pytest.raises(DegenerateOutcomeError):
            dml_logit(np.ones(100), d, X)

    def test_nonbinary_outcome_rejected(self):
        _, d, X = _logit_dgp(13, n=100, p=3)
        with pytest.raises(ValueError):
            dml_logit(np.linspace(0, 1, 100), d, X)

    def test_treatment_fully_explained_by_controls_is_flagged(self):
        rng = np.random.default_rng(14)
        n, p = 400, 10
        X = rng.normal(size=(n, p))
        d = X[:, 0].copy()
        y = (rng.random(n) < 0.5).astype(float)
        with pytest.raises(WeakInstrumentError):
            dml_logit(y, d, X)

    @pytest.mark.parametrize("fitter", [dml_logit, naive_logit, dml_linear, naive_linear])
    def test_zero_rows_rejected(self, fitter):
        with pytest.raises(ValueError, match="no observations"):
            fitter(np.zeros(0), np.zeros(0), np.zeros((0, 3)))

    def test_names_length_mismatch_rejected(self):
        y, d, X = _logit_dgp(15, n=60, p=3)
        with pytest.raises(ValueError):
            dml_logit(y, d, X, names=("a", "b"))


class TestDmlLinear:
    def test_zero_penalty_is_exactly_full_least_squares(self, monkeypatch):
        rng = np.random.default_rng(16)
        n, p = 300, 5
        X = rng.normal(size=(n, p))
        d = X[:, 0] * 0.5 + rng.normal(size=n)
        y = 0.7 * d + X @ np.array([0.4, -0.2, 0.0, 0.1, 0.0]) + rng.normal(size=n)
        monkeypatch.setattr(lasso, "PLUGIN_C", 0.0)
        est = dml_linear(y, d, X)
        Z = np.column_stack([np.ones(n), d, X])
        full, *_ = np.linalg.lstsq(Z, y, rcond=None)
        assert est.alpha == pytest.approx(full[1], abs=1e-10)
        # single-selection comparator refits the same columns at zero penalty
        nv = naive_linear(y, d, X)
        assert nv.alpha == pytest.approx(est.alpha, abs=1e-10)

    def test_null_linear_coverage_within_band(self, null_linear_study):
        _, _, reports = null_linear_study
        cov = reports["dml"].coverage
        assert 0.90 <= cov <= 0.985

    def test_interval_and_pvalue_invariants(self):
        rng = np.random.default_rng(17)
        n, p = 200, 30
        X = rng.normal(size=(n, p))
        d = X[:, 0] + rng.normal(size=n)
        y = 0.5 * d + X[:, 0] + rng.normal(size=n)
        est = dml_linear(y, d, X)
        assert est.ci_low <= est.alpha <= est.ci_high
        assert est.diagnostics["ci_width_err"] <= 1e-10
        assert est.diagnostics["union_size"] >= 1

    def test_collinear_treatment_raises_named_rank_error(self):
        rng = np.random.default_rng(18)
        n, p = 200, 6
        X = rng.normal(size=(n, p))
        d = X[:, 0].copy()
        y = d + rng.normal(size=n)
        with pytest.raises(RankDeficiencyError, match="x0"):
            dml_linear(y, d, X)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(150, 8))
        d = X[:, 1] + rng.normal(size=150)
        y = d + rng.normal(size=150)
        assert dml_linear(y, d, X).alpha == dml_linear(y, d, X).alpha


class TestNaive:
    def test_naive_logit_reports_conventional_inference(self):
        y, d, X = _logit_dgp(20)
        est = naive_logit(y, d, X)
        assert est.method == "naive" and est.family == "logit"
        assert est.std_error > 0
        assert est.step2_support == ()

    def test_naive_keeps_the_treatment_unpenalized(self, monkeypatch):
        # even under a huge penalty the treatment coefficient survives
        y, d, X = _logit_dgp(21)
        monkeypatch.setattr(lasso, "PLUGIN_C", 30.0)
        est = naive_logit(y, d, X)
        assert est.step1_support == ()
        assert est.alpha != 0.0


def _toy_dataset(seed=0, n=300, n_treat=2, n_ctrl=4, family="logit"):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, n_treat + n_ctrl))
    eta = 0.6 * design[:, 0] - 0.3 * design[:, n_treat]
    if family == "logit":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = eta + rng.normal(size=n)
    cols = tuple(
        ColumnInfo(
            name=f"t{j}" if j < n_treat else f"c{j - n_treat}",
            role="treatment" if j < n_treat else "control",
            source=f"s{j}",
        )
        for j in range(n_treat + n_ctrl)
    )
    return Dataset(y=y, design=design, columns=cols)


def _reroled(ds, treatments):
    """ds with exactly the named columns as treatments, sharing its design."""
    columns = tuple(
        dataclasses.replace(c, role="treatment" if c.name in treatments else "control")
        for c in ds.columns)
    return Dataset(y=ds.y, design=ds.design, columns=columns, outcome_name=ds.outcome_name)


def _survey_record(rows) -> str:
    """sha256 prefix over each row's alpha and std_error hex, supports and a
    hash of its diagnostics (a FitFailure row by its error and message)."""
    record = []
    for r in rows:
        if isinstance(r, FitFailure):
            record.append((r.treatment, r.error, r.message))
        else:
            record.append((r.treatment, r.alpha.hex(), r.std_error.hex(), r.step1_support,
                           r.step2_support,
                           hashlib.sha256(repr(r.diagnostics).encode()).hexdigest()[:16]))
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


# dml_multi's 26 rows on encode(synthetic_survey_table(n=300, seed=k)), by
# seed k. The design has 329 columns, so step 1 and step 2 both take the
# screened full sweep; re-record only for a change meant to move estimates.
SURVEY_BITS = {3: "b2753007055e3271", 4: "844e4fcb7753cece"}


class TestSurveyBits:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("seed", sorted(SURVEY_BITS))
    def test_survey_rows_are_unchanged(self, seed, jobs, pool_always):
        ds = encode(synthetic_survey_table(n=300, seed=seed), synthetic_survey_schema())
        assert ds.p - 1 >= lasso._SCREEN_MIN_COLS
        assert _survey_record(dml_multi(ds, jobs=jobs)) == SURVEY_BITS[seed]


def _address(a):
    return a.__array_interface__["data"][0]


class TestSharedDesign:
    """dml_multi fits every treatment from the dataset's own column-major
    design: each treatment stacks its own C-ordered Z = [d | X], and its
    solvers read their columns as views of the dataset's design."""

    def test_each_treatment_design_reads_the_datasets_columns(self, monkeypatch):
        # Every column as a treatment: first, inner and last positions.
        ds = _toy_dataset(seed=5, n=101, n_treat=2, n_ctrl=4)
        ds = _reroled(ds, ds.column_names)
        seen = []

        def spy(y, D, ti, names, family):
            assert D is ds.design
            out = checked(y, D, ti, names, family)
            seen.append(out[2])
            return out

        checked = dml._checked_inputs
        monkeypatch.setattr(dml, "_checked_inputs", spy)
        rows = dml_multi(ds, fail_fast=True)
        assert len(rows) == len(seen) == ds.p
        for ti, design in enumerate(seen):
            order = [ti] + [j for j in range(ds.p) if j != ti]
            assert len(design.xcols) == ds.p
            for col, j in zip(design.xcols, order):
                # A view of the dataset's column j itself: same memory, no copy.
                assert _address(col) == _address(ds.design[:, j])
                assert col.shape == (ds.n,) and col.flags.c_contiguous
            assert design.X.flags.c_contiguous
            assert np.array_equal(design.X.view(np.uint64), ds.design[:, order].view(np.uint64))

    def test_a_survey_fit_holds_under_three_designs_of_memory(self):
        # Each treatment holds its Z and Z * Z, two designs' worth; a third
        # leaves no room for a copy of the dataset's design or for a whole
        # weighted design in a solve.
        ds = encode(synthetic_survey_table(n=2000, seed=1), synthetic_survey_schema())
        ds = _reroled(ds, ds.treatment_names[:2])
        tracemalloc.start()
        try:
            rows = dml_multi(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(isinstance(r, FitFailure) for r in rows)
        assert peak < 3 * ds.design.nbytes


class TestDmlMulti:
    def test_single_treatment_reduces_to_the_direct_fit(self):
        ds = _toy_dataset(seed=1, n_treat=1)
        (est,) = dml_multi(ds)
        direct = dml_logit(
            ds.y, ds.design[:, 0], ds.design[:, 1:],
            names=ds.column_names[1:], treatment="t0",
        )
        assert est.alpha == direct.alpha
        assert est.std_error == direct.std_error

    def test_other_treatments_join_the_controls(self):
        ds = _toy_dataset(seed=2, n_treat=2)
        res = dml_multi(ds)
        keep = [1, 2, 3, 4, 5]
        direct = dml_logit(
            ds.y, ds.design[:, 0], ds.design[:, keep],
            names=tuple(ds.column_names[j] for j in keep), treatment="t0",
        )
        assert res[0].alpha == direct.alpha

    @pytest.mark.parametrize("family, method, public", [
        ("logit", "dml", dml_logit), ("logit", "naive", naive_logit),
        ("linear", "dml", dml_linear), ("linear", "naive", naive_linear),
    ])
    def test_rows_match_the_public_fitter_to_the_bit(self, family, method, public):
        # dml_multi gathers [d | X] in one pass from the dataset's design;
        # the public fitters stack the d and X they are given.
        ds = _toy_dataset(seed=17, n=203, n_treat=3, n_ctrl=12, family=family)
        rows = dml_multi(ds, family=family, method=method)
        for ti, row in enumerate(rows):
            keep = [j for j in range(ds.p) if j != ti]
            direct = public(ds.y, ds.design[:, ti], ds.design[:, keep],
                            names=tuple(ds.column_names[j] for j in keep),
                            treatment=ds.column_names[ti])
            for name in ("alpha", "std_error", "ci_low", "ci_high", "p_value"):
                assert getattr(row, name).hex() == getattr(direct, name).hex(), name
            assert (row.treatment, row.step1_support, row.step2_support, row.warnings) == (
                direct.treatment, direct.step1_support, direct.step2_support, direct.warnings)
            assert repr(sorted(row.diagnostics.items())) == repr(
                sorted(direct.diagnostics.items()))

    def test_rows_follow_the_designs_column_order(self):
        ds = _reroled(_toy_dataset(seed=3, n_treat=3), ("c1", "t2", "t0"))
        res = dml_multi(ds)
        assert [r.treatment for r in res] == ["t0", "t2", "c1"]

    def test_a_control_reroled_as_a_treatment_is_fitted(self):
        ds = _toy_dataset(seed=5)
        (est,) = dml_multi(_reroled(ds, ("c0",)))
        keep = [j for j in range(ds.p) if j != 2]
        direct = dml_logit(ds.y, ds.design[:, 2], ds.design[:, keep],
                           names=tuple(ds.column_names[j] for j in keep), treatment="c0")
        assert (est.treatment, est.alpha, est.std_error) == ("c0", direct.alpha,
                                                            direct.std_error)

    def test_a_dataset_without_treatments_is_rejected(self):
        ds = _reroled(_toy_dataset(seed=6), ())
        with pytest.raises(ValueError, match="no treatment"):
            dml_multi(ds)

    def test_failures_are_recorded_per_treatment(self):
        ds = _toy_dataset(seed=7, n_treat=2)
        design = np.array(ds.design)
        design[:, 1] = 1.0  # constant second treatment
        bad = Dataset(y=ds.y, design=design, columns=ds.columns)
        res = dml_multi(bad)
        assert not isinstance(res[0], FitFailure)
        assert isinstance(res[1], FitFailure)
        assert res[1].error == "DegenerateTreatmentError"
        assert res[1].treatment == "t1"

    def test_fail_fast_propagates_the_error(self):
        ds = _toy_dataset(seed=8, n_treat=2)
        design = np.array(ds.design)
        design[:, 1] = 1.0
        bad = Dataset(y=ds.y, design=design, columns=ds.columns)
        with pytest.raises(DegenerateTreatmentError):
            dml_multi(bad, fail_fast=True)

    @pytest.mark.parametrize("family", ["logit", "linear"])
    @pytest.mark.parametrize("penalty", ["plugin", "cv"])
    def test_worker_count_does_not_change_results(self, pool_always, family, penalty):
        ds = _toy_dataset(seed=9, n_treat=2, family=family)
        cfg = DmlConfig(penalty=PenaltyConfig(method=penalty))
        serial = dml_multi(ds, family=family, config=cfg, jobs=1)
        pooled = dml_multi(ds, family=family, config=cfg, jobs=2)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            for f in dataclasses.fields(a):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if f.name == "artifacts" and va is not None:
                    for g in dataclasses.fields(va):
                        bits = [np.asarray(getattr(v, g.name)).tobytes() for v in (va, vb)]
                        assert bits[0] == bits[1], g.name
                else:  # repr spells every float exactly, nan included
                    assert repr(va) == repr(vb), f.name

    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_a_non_binary_logit_outcome_raises_before_any_fit(self, monkeypatch, fail_fast):
        ds = _toy_dataset(seed=3, n_treat=2, family="linear")
        monkeypatch.setattr(dml, "parallel_map", lambda *args, **kwargs: pytest.fail("fitted"))
        with pytest.raises(ValueError, match="^outcome must be binary 0/1 for the logit family$"):
            dml_multi(ds, family="logit", fail_fast=fail_fast)

    def test_twenty_six_treatments_give_twenty_six_rows(self):
        ds = _toy_dataset(seed=10, n=260, n_treat=26, n_ctrl=4, family="linear")
        res = dml_multi(ds, family="linear", jobs=4)
        assert len(res) == 26
        assert [r.treatment for r in res] == [f"t{j}" for j in range(26)]
        assert all(not isinstance(r, FitFailure) for r in res)

    def test_estimates_from_workers_keep_read_only_artifacts(self, pool_always):
        ds = _toy_dataset(seed=12, n_treat=2)
        serial = dml_multi(ds, jobs=1)
        pooled = dml_multi(ds, jobs=2)
        for a, b in zip(serial, pooled):
            assert a.alpha == b.alpha and a.std_error == b.std_error
            for name in ("eta_tilde", "w_hat", "z_hat", "beta_tilde"):
                arr = getattr(b.artifacts, name)
                assert np.array_equal(arr, getattr(a.artifacts, name))
                assert not arr.flags.writeable

    def test_pickled_artifacts_stay_read_only(self):
        y, d, X = _logit_dgp(13, n=200, p=5)
        art = pickle.loads(pickle.dumps(dml_logit(y, d, X).artifacts))
        assert not art.f_hat.flags.writeable
        with pytest.raises(ValueError):
            art.v_hat[0] = 1.0

    @staticmethod
    def _weak_second_treatment():
        ds = _toy_dataset(seed=20, n_treat=3)
        design = np.array(ds.design)
        design[:, 1] = design[:, 3]  # t1 duplicates control c0
        return Dataset(y=ds.y, design=design, columns=ds.columns)

    def test_fail_fast_error_from_workers_matches_the_serial_one(self, pool_always):
        bad = self._weak_second_treatment()
        with pytest.raises(WeakInstrumentError) as serial:
            dml_multi(bad, fail_fast=True, jobs=1)
        with pytest.raises(WeakInstrumentError) as pooled:
            dml_multi(bad, fail_fast=True, jobs=2)
        assert str(pooled.value) == str(serial.value)
        assert pooled.value.mean_z2 == serial.value.mean_z2

    def test_failure_rows_from_workers_match_the_serial_ones(self, pool_always):
        bad = self._weak_second_treatment()
        serial, pooled = dml_multi(bad, jobs=1), dml_multi(bad, jobs=2)
        assert isinstance(pooled[1], FitFailure)
        assert pooled[1] == serial[1]

    def test_cv_fits_count_their_solves_in_the_pool_cutoff(self, pool_refused):
        # 2 x 1000 x 20 = 40k cells: serial for one plug-in solve per step,
        # 12M cells for the 301 solves of a 10-fold, 30-level CV step.
        ds = _toy_dataset(seed=15, n=1000, n_treat=2, n_ctrl=18, family="linear")
        assert len(dml_multi(ds, family="linear", jobs=2)) == 2
        cv = DmlConfig(penalty=PenaltyConfig(method="cv"))
        with pytest.raises(pool_refused):
            dml_multi(ds, family="linear", config=cv, jobs=2)

    @pytest.mark.parametrize("family", ["logit", "linear"])
    @pytest.mark.parametrize("method, steps", [("dml", 2), ("naive", 1)])
    def test_cv_solves_stopped_at_the_cap_leave_one_warning_per_step(
            self, monkeypatch, family, method, steps):
        ds = _toy_dataset(seed=16, n=200, n_treat=1, family=family)
        cv = DmlConfig(penalty=PenaltyConfig(method="cv"))

        def cv_notes():
            (est,) = dml_multi(ds, family=family, method=method, config=cv)
            return [note for note in est.warnings if note.startswith("cross-validated")]

        assert cv_notes() == []
        monkeypatch.setattr(lasso, "_MAX_SWEEPS", 2)
        notes = cv_notes()
        assert len(notes) == steps, notes
        assert all(re.fullmatch(r"cross-validated penalty level \S+: [1-9]\d* of 300 fold "
                                r"solves stopped at a solver cap before converging", note)
                   for note in notes)

    @pytest.mark.parametrize("n", [6, 9])
    def test_cv_on_fewer_rows_than_folds_is_an_estimation_error(self, n):
        ds = _toy_dataset(seed=17, n=n, n_treat=1, family="linear")
        cv = DmlConfig(penalty=PenaltyConfig(method="cv"))
        message = f"cross-validation needs at least {lasso.CV_FOLDS} rows, one per fold; got {n}"
        with pytest.raises(ValueError, match=re.escape(message)):
            dml_linear(ds.y, ds.design[:, 0], ds.design[:, 1:], config=cv)
        assert dml_multi(ds, family="linear", config=cv) == (
            FitFailure(treatment="t0", error="ValueError", message=message),)

    def test_programming_errors_propagate_instead_of_becoming_rows(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a fitter")

        monkeypatch.setitem(dml._FITTERS, ("linear", "dml"), broken)
        ds = _toy_dataset(seed=14, family="linear")
        with pytest.raises(TypeError, match="bug in a fitter"):
            dml_multi(ds, family="linear")

    def test_unknown_family_method_pair_rejected(self):
        ds = _toy_dataset(seed=11)
        with pytest.raises(ValueError, match="family/method"):
            dml_multi(ds, family="poisson")


class TestDmlConfig:
    def test_default_fingerprint_is_stable(self):
        fp = DmlConfig().fingerprint()
        assert fp == "instrument=sqrt-sigma;penalty=plugin(c=1.1);grid=401;level=0.05"

    def test_cv_fingerprint_names_the_selector(self):
        cfg = DmlConfig(penalty=PenaltyConfig(method="cv"))
        assert "penalty=cv(folds=10);" in cfg.fingerprint()

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            DmlConfig(level=1.5)

    def test_bad_scaling_rejected(self):
        with pytest.raises(ValueError):
            DmlConfig(instrument_scaling="raw")

    @pytest.mark.parametrize("seed, message", [(-1, "nonnegative"), (2**64, "below 2\\*\\*64")])
    def test_seed_outside_the_fold_generator_key_rejected(self, seed, message):
        with pytest.raises(ValueError, match=message):
            DmlConfig(seed=seed)
        assert DmlConfig(seed=2**64 - 1).seed == 2**64 - 1
