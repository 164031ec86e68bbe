"""Penalized regression engine: thresholding, penalty level, solvers, refits."""

import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

import oracles
from oracles import soft_threshold
from doublelasso import lasso
from doublelasso import PenaltyConfig, lambda_max_wls, lasso_logistic, lasso_wls, plugin_lambda
from doublelasso.glm import wls_fit
from doublelasso.lasso import (
    _Design,
    cv_lambda,
    logistic_lasso_loadings,
    post_refit,
    wls_lasso_loadings,
)


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_dead_zone_is_exact_zero(self):
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(1.0, 1.0) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestPluginLambda:
    def test_frozen_reference_value(self):
        got = plugin_lambda(100, 10)
        assert got == pytest.approx(33.72290970643277, abs=1e-9)
        want = 1.1 * 10.0 * oracles.normal_quantile(1.0 - 0.1 / math.log(100) / 20.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_constant_gives_zero(self, monkeypatch):
        monkeypatch.setattr(lasso, "PLUGIN_C", 0.0)
        assert plugin_lambda(100, 10) == 0.0

    def test_default_gamma_matches_quantile_oracle(self):
        n, p = 5908, 329
        gamma = 0.1 / math.log(n)
        want = 1.1 * math.sqrt(n) * oracles.normal_quantile(1.0 - gamma / (2 * p))
        assert plugin_lambda(n, p) == pytest.approx(want, rel=1e-12)
        assert plugin_lambda(n, p) > plugin_lambda(100, 10)

    def test_default_gamma_needs_two_observations(self):
        with pytest.raises(ValueError):
            plugin_lambda(1, 3)

    def test_grows_with_dimension(self):
        assert plugin_lambda(200, 50) > plugin_lambda(200, 5)

    def test_constant_scales_the_level(self, monkeypatch):
        monkeypatch.setattr(lasso, "PLUGIN_C", 2.0)
        assert plugin_lambda(100, 10) == pytest.approx(
            2.0 * 10.0 * oracles.normal_quantile(1.0 - 0.1 / math.log(100) / 20.0), rel=1e-12
        )


class TestPenaltyConfig:
    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(method="oracle")


def _wls_instance(seed, n=120, p=15):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(p, p)) * 0.3 + np.eye(p)
    X = rng.normal(size=(n, p)) @ L
    theta = np.zeros(p)
    theta[: p // 3] = rng.normal(size=p // 3)
    y = X @ theta + rng.normal(size=n)
    w = rng.random(n) + 0.2
    g = rng.uniform(0.5, 2.0, size=p)
    return X, y, w, g


class TestLassoWls:
    def test_zero_penalty_equals_weighted_least_squares(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        w = rng.random(50) + 0.3
        fit = lasso_wls(X, y, w, 0.0, tol=1e-12)
        full = wls_fit(np.column_stack([np.ones(50), X]), y, w * w)
        assert fit.intercept == pytest.approx(full[0], abs=1e-8)
        np.testing.assert_allclose(fit.coef, full[1:], atol=1e-8)

    def test_penalty_at_lambda_max_zeroes_everything(self):
        X, y, w, g = _wls_instance(5)
        top = lambda_max_wls(X, y, w, g)
        for lam in (top, 2.0 * top):
            fit = lasso_wls(X, y, w, lam, g)
            assert fit.support == ()
            np.testing.assert_allclose(fit.coef, 0.0, atol=0.0)
            W = w * w
            assert fit.intercept == pytest.approx(float(W @ y) / float(W.sum()), abs=1e-10)

    def test_just_below_lambda_max_activates_a_coordinate(self):
        X, y, w, g = _wls_instance(6)
        top = lambda_max_wls(X, y, w, g)
        fit = lasso_wls(X, y, w, 0.99 * top, g)
        assert len(fit.support) >= 1

    def test_orthonormal_design_matches_closed_form(self):
        # Acceptance: 100 random instances against the soft-threshold formula.
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(20, 60))
            p = int(rng.integers(2, min(n, 8)))
            Q, _ = np.linalg.qr(rng.normal(size=(n, p)))
            y = rng.normal(size=n)
            g = rng.uniform(0.5, 2.0, size=p)
            top = float(np.max(np.abs(2.0 * (Q.T @ y)) / g))
            lam = float(rng.uniform(0.0, 1.2)) * top
            fit = lasso_wls(Q, y, np.ones(n), lam, g, fit_intercept=False)
            want = oracles.orthonormal_solution(Q, y, lam, g)
            worst = max(worst, float(np.max(np.abs(fit.coef - want))))
        assert worst <= 1e-8

    def test_stationarity_certificates_hold(self):
        # Acceptance: KKT gaps at 1e-6 over 100 random weighted instances.
        worst_sup, worst_out = 0.0, 0.0
        for seed in range(100):
            X, y, w, g = _wls_instance(2000 + seed)
            top = lambda_max_wls(X, y, w, g)
            lam = 0.3 * top
            fit = lasso_wls(X, y, w, lam, g, tol=1e-10)
            sup, out, icpt = oracles.wls_kkt_gaps(X, y, w, fit)
            worst_sup = max(worst_sup, sup)
            worst_out = max(worst_out, out)
            assert icpt <= 1e-6
        assert worst_sup <= 1e-6
        assert worst_out <= 1e-6

    def test_objective_path_never_increases(self):
        X, y, w, g = _wls_instance(7)
        fit = lasso_wls(X, y, w, 0.2 * lambda_max_wls(X, y, w, g), g)
        path = fit.objective_path
        assert np.all(np.diff(path) <= 1e-12 * (1.0 + np.abs(path[:-1])))

    def test_column_and_loading_rescaling_leaves_fit_invariant(self):
        X, y, w, g = _wls_instance(8)
        lam = 0.3 * lambda_max_wls(X, y, w, g)
        fit1 = lasso_wls(X, y, w, lam, g, tol=1e-12)
        k = 3.0
        X2 = X.copy()
        X2[:, 4] *= k
        g2 = g.copy()
        g2[4] *= k
        fit2 = lasso_wls(X2, y, w, lam, g2, tol=1e-12)
        np.testing.assert_allclose(
            fit1.intercept + X @ fit1.coef,
            fit2.intercept + X2 @ fit2.coef,
            atol=1e-8,
        )
        assert fit2.coef[4] == pytest.approx(fit1.coef[4] / k, abs=1e-10)

    def test_unpenalized_column_is_fit_freely_and_kept_out_of_support(self):
        X, y, w, g = _wls_instance(9)
        lam = 0.5 * lambda_max_wls(X, y, w, g)
        fit = lasso_wls(X, y, w, lam, g, unpenalized=(0,), tol=1e-12)
        assert 0 not in fit.support
        W = w * w
        r = y - fit.intercept - X @ fit.coef
        score0 = 2.0 * float((W * r) @ X[:, 0])
        assert abs(score0) <= 1e-6 * (1.0 + abs(2.0 * float((W * y) @ X[:, 0])))

    def test_all_zero_column_keeps_zero_coefficient(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 0.0
        y = rng.normal(size=40)
        fit = lasso_wls(X, y, np.ones(40), 0.0)
        assert fit.coef[1] == 0.0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            lasso_wls(np.ones((3, 1)), np.ones(3), np.ones(3), -1.0)

    def test_nonpositive_loadings_rejected(self):
        with pytest.raises(ValueError):
            lasso_wls(np.ones((3, 1)), np.ones(3), np.ones(3), 1.0, np.zeros(1))


def _logistic_instance(seed, n=150, p=10):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[:3] = rng.normal(size=3)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
    return X, y, rng.uniform(0.5, 2.0, size=p)


class TestWarmStart:
    """`init=` starts a solver elsewhere; it must reach the same optimum."""

    def _starts(self, other_fit, p, seed):
        rng = np.random.default_rng(seed)
        return [
            (other_fit.intercept, other_fit.coef),
            (other_fit.intercept + 0.3, other_fit.coef + rng.normal(scale=0.5, size=p)),
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_wls_reaches_the_cold_optimum(self, seed):
        X, y, w, g = _wls_instance(70 + seed)
        top = lambda_max_wls(X, y, w, g)
        cold = lasso_wls(X, y, w, 0.2 * top, g, tol=1e-10)
        other = lasso_wls(X, y, w, 0.5 * top, g, tol=1e-10)
        for init in self._starts(other, X.shape[1], seed):
            warm = lasso_wls(X, y, w, 0.2 * top, g, tol=1e-10, init=init)
            assert abs(warm.objective - cold.objective) <= 1e-10 * abs(cold.objective)
            assert max(oracles.wls_kkt_gaps(X, y, w, warm)) <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_logistic_reaches_the_cold_optimum(self, seed):
        X, y, g = _logistic_instance(80 + seed)
        lam = 0.25 * plugin_lambda(*X.shape)
        cold = lasso_logistic(X, y, lam, g, tol=1e-10)
        other = lasso_logistic(X, y, 2.0 * lam, g, tol=1e-10)
        for init in self._starts(other, X.shape[1], seed):
            warm = lasso_logistic(X, y, lam, g, tol=1e-10, init=init)
            assert abs(warm.objective - cold.objective) <= 1e-10 * abs(cold.objective)
            assert max(oracles.logistic_kkt_gaps(X, y, warm)) <= 1e-6

    @pytest.mark.parametrize("coef", [np.zeros(3), np.zeros((4, 1)), [0.0, np.nan, 0.0, 0.0],
                                      [0.0, np.inf, 0.0, 0.0]])
    def test_bad_init_rejected(self, coef):
        X, y, w, g = _wls_instance(90, n=30, p=4)
        yb = (y > 0).astype(float)
        with pytest.raises(ValueError, match="init"):
            lasso_wls(X, y, w, 1.0, g, init=(0.0, coef))
        with pytest.raises(ValueError, match="init"):
            lasso_logistic(X, yb, 1.0, g, init=(0.0, coef))

    def test_bad_init_intercept_rejected(self):
        X, y, w, g = _wls_instance(91, n=30, p=4)
        with pytest.raises(ValueError, match="init"):
            lasso_wls(X, y, w, 1.0, g, init=(np.nan, np.zeros(4)))
        with pytest.raises(ValueError, match="init"):
            lasso_wls(X, y, w, 1.0, g, fit_intercept=False, init=(0.5, np.zeros(4)))

    def test_init_is_not_modified(self):
        X, y, w, g = _wls_instance(92)
        coef = np.ones(X.shape[1])
        lasso_wls(X, y, w, 1.0, g, init=(0.0, coef))
        assert np.all(coef == 1.0)


class TestLassoLogistic:
    def test_huge_penalty_leaves_only_the_base_rate(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(200, 6))
        y = (rng.random(200) < 0.3).astype(float)
        fit = lasso_logistic(X, y, 1e6, np.ones(6))
        assert fit.support == ()
        ybar = float(np.mean(y))
        assert fit.intercept == pytest.approx(math.log(ybar / (1 - ybar)), abs=1e-6)

    def test_zero_penalty_matches_newton_mle(self):
        # Acceptance: unpenalized path agrees with an independent Newton solver.
        rng = np.random.default_rng(15)
        n, p = 300, 5
        X = rng.normal(size=(n, p))
        eta = 0.4 + X @ np.array([0.8, -0.5, 0.0, 0.3, 0.0])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = lasso_logistic(X, y, 0.0, np.ones(p), tol=1e-12)
        want = oracles.newton_logit(np.column_stack([np.ones(n), X]), y)
        assert fit.intercept == pytest.approx(want[0], abs=1e-6)
        np.testing.assert_allclose(fit.coef, want[1:], atol=1e-6)

    def test_pure_noise_design_selects_nothing_almost_always(self):
        empty = 0
        for seed in range(200):
            rng = np.random.default_rng(30_000 + seed)
            X = rng.normal(size=(1000, 50))
            y = (rng.random(1000) < 0.5).astype(float)
            lam = plugin_lambda(1000, 50)
            g = logistic_lasso_loadings(X, y, lam)
            fit = lasso_logistic(X, y, lam, g)
            empty += fit.support == ()
        assert empty >= 190  # at least 95% of 200 seeds

    def test_stationarity_certificates_hold(self):
        # Acceptance: KKT gaps at 1e-6 over 100 random logistic instances.
        worst_sup, worst_out = 0.0, 0.0
        for seed in range(100):
            rng = np.random.default_rng(40_000 + seed)
            n, p = 150, 10
            X = rng.normal(size=(n, p))
            beta = np.zeros(p)
            beta[:3] = rng.normal(size=3)
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
            g = rng.uniform(0.5, 2.0, size=p)
            lam = 0.25 * plugin_lambda(n, p)
            fit = lasso_logistic(X, y, lam, g, tol=1e-10)
            sup, out, icpt = oracles.logistic_kkt_gaps(X, y, fit)
            worst_sup = max(worst_sup, sup)
            worst_out = max(worst_out, out)
            assert icpt <= 1e-6
        assert worst_sup <= 1e-6
        assert worst_out <= 1e-6

    def test_objective_path_never_increases(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(120, 8))
        y = (rng.random(120) < 0.5).astype(float)
        fit = lasso_logistic(X, y, 2.0, np.ones(8))
        path = fit.objective_path
        assert np.all(np.diff(path) <= 1e-10 * (1.0 + np.abs(path[:-1])))

    def test_separated_data_without_penalty_warns(self):
        x = np.concatenate([-np.ones(20), np.ones(20)])
        y = (x > 0).astype(float)
        fit = lasso_logistic(x[:, None], y, 0.0, np.ones(1))
        assert any("separation" in wmsg for wmsg in fit.warnings)

    def test_small_penalty_keeps_separated_coefficient_finite(self):
        x = np.concatenate([-np.ones(20), np.ones(20)])
        y = (x > 0).astype(float)
        fit = lasso_logistic(x[:, None], y, 1e-4, np.ones(1))
        assert np.all(np.isfinite(fit.coef))

    def test_nonbinary_outcome_rejected(self):
        with pytest.raises(ValueError):
            lasso_logistic(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), 1.0)


def _separable_instance():
    X = np.random.default_rng(0).normal(size=(100, 3))
    return X, (X[:, 0] > 0).astype(float)


class TestSolverCaps:
    """Both solvers stop at their caps with a warning that names the cap."""

    def _assert_capped(self, fit, text):
        assert not fit.converged
        assert fit.iterations <= 3
        assert any(text in note for note in fit.warnings), fit.warnings
        path = fit.objective_path
        assert np.all(np.diff(path) <= 1e-10 * (1.0 + np.abs(path[:-1])))

    def test_sweep_cap_stops_both_solvers_with_a_warning(self, monkeypatch):
        monkeypatch.setattr(lasso, "_MAX_SWEEPS", 3)
        X, y, w, g = _wls_instance(27)
        fit = lasso_wls(X, y, w, 0.2 * lambda_max_wls(X, y, w, g), g)
        self._assert_capped(fit, "weighted lasso stopped at the sweep cap (3)")
        X, yb, g = _logistic_instance(28)
        fit = lasso_logistic(X, yb, 0.25 * plugin_lambda(*X.shape), g)
        self._assert_capped(fit, "logistic lasso stopped at the sweep cap (3)")

    def test_separable_solve_reports_the_pass_cap(self):
        fit = lasso_logistic(*_separable_instance(), 0.0)
        assert not fit.converged
        assert fit.iterations < lasso._MAX_SWEEPS
        assert fit.objective_path.size == lasso._MAX_OUTER + 1
        assert fit.warnings[-1] == (
            "logistic lasso stopped at the pass cap (200) before reaching tol=1e-08")

    def test_lower_pass_cap_is_named_in_the_note(self, monkeypatch):
        monkeypatch.setattr(lasso, "_MAX_OUTER", 2)
        fit = lasso_logistic(*_separable_instance(), 0.0)
        assert not fit.converged
        assert fit.objective_path.size == 3
        assert fit.warnings == (
            "logistic lasso stopped at the pass cap (2) before reaching tol=1e-08",)


class TestLoadings:
    def test_wls_loadings_positive_and_shaped(self):
        X, y, w, _ = _wls_instance(17)
        g = wls_lasso_loadings(X, y, w, plugin_lambda(*X.shape))
        assert g.shape == (X.shape[1],)
        assert np.all(g > 0)

    def test_logistic_loadings_positive_and_shaped(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(100, 7))
        y = (rng.random(100) < 0.5).astype(float)
        g = logistic_lasso_loadings(X, y, plugin_lambda(100, 7))
        assert g.shape == (7,)
        assert np.all(g > 0)

    def test_pilot_wls_loadings_are_scaled_column_norms(self, monkeypatch):
        X, y, w, _ = _wls_instance(19)
        pilots = []

        def spy(*args, **kwargs):
            pilots.append(args[4])
            return solve(*args, **kwargs)

        solve = lasso.lasso_wls
        monkeypatch.setattr(lasso, "lasso_wls", spy)
        wls_lasso_loadings(X, y, w, plugin_lambda(*X.shape))
        assert len(pilots) == 1
        g = pilots[0]
        W = w * w
        ybar = float(W @ y) / float(W.sum())
        u = w * (y - ybar)
        scale = math.sqrt(float(np.mean(u * u)))
        want = np.sqrt(W @ (X * X) / y.size) * scale
        np.testing.assert_allclose(g, want, rtol=1e-12)


def _cold_cv_losses(X, y, family, w, loadings, seed, unpenalized=()):
    """Reference cross-validation: cv_lambda's folds and grid (the lasso
    module's constants, as patched), with every fold and level solved from
    zero. Returns (grid, held-out losses by fold and level)."""
    n = y.size
    if family == "linear":
        top = lambda_max_wls(X, y, w, loadings)
    else:
        top = float(np.max(np.abs((y - y.mean()) @ X) / loadings))
    grid = np.geomspace(top, top * lasso.CV_MIN_RATIO, lasso.CV_GRID)
    perm = np.random.Generator(np.random.Philox(key=np.uint64(seed))).permutation(n)
    losses = np.zeros((lasso.CV_FOLDS, grid.size))
    for fi, test_idx in enumerate(np.array_split(perm, lasso.CV_FOLDS)):
        train = np.ones(n, dtype=bool)
        train[test_idx] = False
        for gi, lam in enumerate(grid):
            if family == "linear":
                fit = lasso_wls(X[train], y[train], w[train], float(lam), loadings,
                                unpenalized=unpenalized)
                resid = y[test_idx] - fit.intercept - X[test_idx] @ fit.coef
                losses[fi, gi] = np.mean((w[test_idx] * resid) ** 2)
            else:
                fit = lasso_logistic(X[train], y[train], float(lam), loadings,
                                     unpenalized=unpenalized)
                eta = fit.intercept + X[test_idx] @ fit.coef
                losses[fi, gi] = np.mean(np.logaddexp(0.0, eta) - y[test_idx] * eta)
    return grid, losses


def _selected_level(grid, losses):
    """The largest level within rounding (1e-9 relative) of the least mean loss."""
    mean_loss = losses.mean(axis=0)
    low = mean_loss.min()
    return float(grid[np.flatnonzero(mean_loss <= low + 1e-9 * (1.0 + abs(low)))[0]])


def _cv_instance(family, seed, beta, n=80, p=6):
    """Columns beyond len(beta) are noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    eta = X[:, : len(beta)] @ np.asarray(beta)
    if family == "linear":
        y = eta + rng.normal(size=n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    w = rng.random(n) + 0.3 if family == "linear" else np.ones(n)
    return X, y, w, rng.uniform(0.5, 2.0, size=p)


def _uncentered_instance(family, seed, n=90, p=8):
    """Uncentered columns: 0/1 dummies, an offset column and a 1..11 count.

    Column 0 carries the signal, so it can be left unpenalized.
    """
    rng = np.random.default_rng(seed)
    X = np.empty((n, p))
    X[:, :3] = (rng.random((n, 3)) < [0.5, 0.2, 0.8]).astype(float)
    X[:, 3] = rng.normal(size=n) + 5.0
    X[:, 4] = rng.integers(1, 12, size=n)
    X[:, 5:] = rng.normal(size=(n, p - 5)) + 0.5 * X[:, :1]
    eta = 1.2 * (X[:, 0] - 0.5) - 0.3 * (X[:, 3] - 5.0) + 0.1 * (X[:, 4] - 6.0)
    if family == "linear":
        y = eta + rng.normal(size=n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    w = rng.uniform(0.2, 3.0, size=n) if family == "linear" else np.ones(n)
    return X, y, w, rng.uniform(0.5, 2.0, size=p)


def _spy_on_solvers(monkeypatch):
    """Record every fit that the lasso module's own solver names return."""
    fits = []
    for name in ("lasso_wls", "lasso_logistic"):
        def spy(*args, _solve=getattr(lasso, name), **kwargs):
            fit = _solve(*args, **kwargs)
            fits.append(fit)
            return fit
        monkeypatch.setattr(lasso, name, spy)
    return fits


def _assert_cold_level(monkeypatch, X, y, family, w, g, seed, unpenalized=()):
    monkeypatch.setattr(lasso, "CV_FOLDS", 5)
    grid, losses = _cold_cv_losses(X, y, family, w, g, seed, unpenalized)
    got = cv_lambda(X, y, family, w=w, loadings=g, unpenalized=unpenalized, seed=seed)
    assert got == _selected_level(grid, losses)


class TestCvLambda:
    @pytest.mark.parametrize("family, seed, beta, unpenalized", [
        ("linear", 60, (1.0, -0.7), ()),
        ("linear", 61, (0.3, -0.2), (0,)),
        ("logistic", 62, (1.0, -0.7), ()),
        ("logistic", 63, (0.5, -0.3), ()),
        # Pure-noise penalized columns beside an unpenalized signal column:
        # the top levels all zero every penalized coordinate in every fold,
        # so their losses tie up to rounding and the largest level wins.
        ("logistic", 64, (1.5,), (0,)),
    ])
    def test_warm_path_selects_the_cold_start_level(self, family, seed, beta, unpenalized):
        X, y, w, g = _cv_instance(family, seed, beta)
        grid, losses = _cold_cv_losses(X, y, family, w, g, seed, unpenalized)
        got = cv_lambda(X, y, family, w=w, loadings=g, unpenalized=unpenalized, seed=seed)
        assert got == _selected_level(grid, losses)
        if len(beta) == 1:
            assert got == grid[0]

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("unpenalized", [(), (0,)])
    def test_uncentered_columns_select_the_cold_start_level(self, family, unpenalized,
                                                            monkeypatch):
        X, y, w, g = _uncentered_instance(family, 70 + len(unpenalized))
        _assert_cold_level(monkeypatch, X, y, family, w, g, 5, unpenalized)

    def test_weighted_linear_selects_the_cold_start_level(self, monkeypatch):
        X, y, _, g = _cv_instance("linear", 72, (0.8, -0.5, 0.3), n=120, p=10)
        X[:, 1] += 4.0
        w = np.random.default_rng(73).uniform(0.1, 4.0, size=y.size)
        _assert_cold_level(monkeypatch, X, y, "linear", w, g, 8)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("unpenalized", [(), (2,)])
    def test_columns_constant_on_training_rows_select_the_cold_start_level(
            self, family, unpenalized, monkeypatch):
        X, y, w, g = _uncentered_instance(family, 76, n=93)
        X[:, 1] = 0.0
        X[17, 1] = 1.0  # constant on the training rows of the fold holding row 17
        X[:, 2] = 0.3
        fits = _spy_on_solvers(monkeypatch)
        _assert_cold_level(monkeypatch, X, y, family, w, g, 10, unpenalized)
        # A rounding residue of 0.3's mean left in an unpenalized column
        # would trade places with the intercept until the sweep cap.
        assert len(fits) == 5 * 30
        assert all(fit.converged for fit in fits)
        assert all(fit.coef[2] == 0.0 for fit in fits)

    @pytest.mark.parametrize("unpenalized", [(), (0,)])
    def test_centered_design_is_a_reparametrization(self, unpenalized):
        X, y, w, g = _uncentered_instance("linear", 78)
        yb = (y > np.median(y)).astype(float)
        mu = X.mean(axis=0)
        Xc = X - mu
        lam_w = 0.2 * lambda_max_wls(X, y, w, g)
        lam_l = 0.2 * float(np.max(np.abs((yb - yb.mean()) @ X) / g))
        opts = dict(unpenalized=unpenalized, tol=1e-12)
        for raw, cen, check in (
            (lasso_wls(X, y, w, lam_w, g, **opts), lasso_wls(Xc, y, w, lam_w, g, **opts),
             lambda fit: oracles.wls_kkt_gaps(X, y, w, fit)),
            (lasso_logistic(X, yb, lam_l, g, **opts), lasso_logistic(Xc, yb, lam_l, g, **opts),
             lambda fit: oracles.logistic_kkt_gaps(X, yb, fit)),
        ):
            assert raw.support and raw.support == cen.support
            np.testing.assert_allclose(cen.coef, raw.coef, rtol=0, atol=1e-7)
            assert cen.intercept - raw.intercept == pytest.approx(mu @ raw.coef, abs=1e-7)
            mapped = dataclasses.replace(cen, intercept=cen.intercept - float(mu @ cen.coef))
            assert max(check(mapped)) <= 1e-6

    def test_demo_cv_fit_takes_few_sweeps(self, monkeypatch):
        from doublelasso import (DmlConfig, dml_multi, encode, encoding_spec_from_yaml,
                                 load_table)

        demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demo")
        with open(os.path.join(demo, "encoding.yaml"), encoding="utf-8") as fh:
            spec = encoding_spec_from_yaml(fh.read())
        dataset = encode(load_table(os.path.join(demo, "toy_survey.csv")), spec)
        fits = _spy_on_solvers(monkeypatch)
        dml_multi(dataset, family="logit",
                  config=DmlConfig(penalty=PenaltyConfig(method="cv")))
        # 2 loadings refits + 2 x 10 folds x 30 levels; a path warm-started
        # from the previous level alone took 31,373 sweeps here.
        assert len(fits) == 602
        assert sum(fit.iterations for fit in fits) <= 10_000

    def test_same_seed_reproduces_the_level(self):
        X, y, w, g = _wls_instance(20, n=80, p=6)
        a = cv_lambda(X, y, "linear", w=w, loadings=g, seed=7)
        b = cv_lambda(X, y, "linear", w=w, loadings=g, seed=7)
        assert a == b
        assert a > 0

    def test_logistic_family_runs(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(90, 5))
        y = (rng.random(90) < 0.5).astype(float)
        lam = cv_lambda(X, y, "logistic", loadings=np.ones(5), seed=1)
        assert lam >= 0

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_fold_solves_stopped_at_the_cap_are_counted_in_one_note(self, monkeypatch, family):
        X, y, w, g = _wls_instance(20, n=80, p=6)
        if family == "logistic":
            y, w = (y > np.median(y)).astype(float), None
        notes = []
        cv_lambda(X, y, family, w=w, loadings=g, seed=7, notes=notes)
        assert notes == []
        monkeypatch.setattr(lasso, "_MAX_SWEEPS", 2)
        fits = _spy_on_solvers(monkeypatch)
        lam = cv_lambda(X, y, family, w=w, loadings=g, seed=7, notes=notes)
        capped = sum(not fit.converged for fit in fits)
        assert len(fits) == 300 and capped > 0
        assert notes == [f"cross-validated penalty level {lam:.6g}: {capped} of 300 fold "
                         "solves stopped at a solver cap before converging"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            cv_lambda(np.ones((4, 1)), np.ones(4), "poisson", loadings=np.ones(1))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same_fit(a, b):
    assert _bits(a.intercept) == _bits(b.intercept)
    assert np.array_equal(_bits(a.coef), _bits(b.coef))
    assert np.array_equal(_bits(a.objective_path), _bits(b.objective_path))
    assert np.array_equal(_bits(a.loadings), _bits(b.loadings))
    assert a.iterations == b.iterations
    assert (a.support, a.converged, a.warnings) == (b.support, b.converged, b.warnings)


def _wls_level(X, y, w, g, fit_intercept):
    """0.3 of the smallest all-zero lasso_wls level, with or without intercept."""
    if fit_intercept:
        return 0.3 * lambda_max_wls(X, y, w, g)
    return 0.3 * float(np.max(np.abs(2.0 * ((w * w * y) @ X)) / g))


def _design_instance(seed, layout):
    """A zero-variance column 1 and, with layout "F", a Fortran-ordered X."""
    X, y, w, g = _wls_instance(seed, n=101, p=9)
    X[:, 1] = 0.0
    yb = (y > np.median(y)).astype(float)
    return (np.asfortranarray(X) if layout == "F" else X), y, yb, w, g


class TestPreparedDesign:
    """A prepared design gives the plain array's results to the bit."""

    CASES = [
        # (fit_intercept, unpenalized, warm start); only lasso_wls can
        # leave the intercept out
        (True, (), False),
        (True, (0,), True),
        (False, (0,), False),
        (False, (), True),
    ]

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("fit_intercept, unpenalized, warm", CASES)
    def test_solvers_match_the_plain_array(self, layout, fit_intercept, unpenalized, warm):
        X, y, yb, w, g = _design_instance(40 + len(unpenalized) + 2 * warm, layout)
        design = _Design(X)
        lam_w = _wls_level(X, y, w, g, fit_intercept)
        lam_l = 0.3 * plugin_lambda(*X.shape)
        init = None
        if warm:
            init = (0.1 if fit_intercept else 0.0, np.linspace(-0.2, 0.2, X.shape[1]))
        # Each solver runs twice on the design, so the second run reuses
        # the derived arrays the first one built.
        for _ in range(2):
            opts = dict(fit_intercept=fit_intercept, unpenalized=unpenalized, init=init)
            _assert_same_fit(lasso_wls(design, y, w, lam_w, g, **opts),
                             lasso_wls(X, y, w, lam_w, g, **opts))
            if fit_intercept:
                opts = dict(unpenalized=unpenalized, init=init)
                _assert_same_fit(lasso_logistic(design, yb, lam_l, g, **opts),
                                 lasso_logistic(X, yb, lam_l, g, **opts))

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("unpenalized", [(), (0,)])
    def test_loadings_match_the_plain_array(self, layout, unpenalized):
        X, y, yb, w, _ = _design_instance(45, layout)
        design = _Design(X)
        lam = plugin_lambda(*X.shape)
        opts = dict(unpenalized=unpenalized)
        got = wls_lasso_loadings(design, y, w, lam, **opts)
        assert np.array_equal(_bits(got), _bits(wls_lasso_loadings(X, y, w, lam, **opts)))
        got = logistic_lasso_loadings(design, yb, lam, **opts)
        assert np.array_equal(_bits(got), _bits(logistic_lasso_loadings(X, yb, lam, **opts)))

    @pytest.mark.parametrize("fit_intercept, unpenalized, warm", CASES)
    def test_tail_views_match_a_copy_of_the_columns(self, fit_intercept, unpenalized, warm):
        # n = 101 is not a multiple of 8, so the Fortran tail's columns
        # start at a different alignment than a fresh copy's.
        X, y, yb, w, g = _design_instance(50 + len(unpenalized) + 2 * warm, "C")
        Z = np.column_stack([y - X[:, 0], X])
        parent = _Design(Z)
        tail = parent.tail()
        copy = _Design(np.ascontiguousarray(Z[:, 1:]))
        for name in ("X", "Xf", "Xsq"):
            assert np.shares_memory(getattr(tail, name), getattr(parent, name)), name
        assert vars(tail)["finite"]
        lam_w = _wls_level(X, y, w, g, fit_intercept)
        lam_l = 0.3 * plugin_lambda(*X.shape)
        init = (0.1 if fit_intercept else 0.0, np.linspace(-0.2, 0.2, X.shape[1])) if warm else None
        _assert_same_fit(lasso_wls(tail, y, w, lam_w, g, fit_intercept=fit_intercept,
                                   unpenalized=unpenalized, init=init),
                         lasso_wls(copy, y, w, lam_w, g, fit_intercept=fit_intercept,
                                   unpenalized=unpenalized, init=init))
        opts = dict(unpenalized=unpenalized)
        if fit_intercept:
            _assert_same_fit(lasso_logistic(tail, yb, lam_l, g, init=init, **opts),
                             lasso_logistic(copy, yb, lam_l, g, init=init, **opts))
        assert np.array_equal(_bits(wls_lasso_loadings(tail, y, w, lam_l, **opts)),
                              _bits(wls_lasso_loadings(copy, y, w, lam_l, **opts)))
        assert np.array_equal(_bits(logistic_lasso_loadings(tail, yb, lam_l, **opts)),
                              _bits(logistic_lasso_loadings(copy, yb, lam_l, **opts)))

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("unpenalized", [(), (0,)])
    def test_cv_lambda_returns_the_same_level(self, family, unpenalized, monkeypatch):
        X, y, w, g = _cv_instance(family, 66, (1.0, -0.7))
        monkeypatch.setattr(lasso, "CV_FOLDS", 4)
        monkeypatch.setattr(lasso, "CV_GRID", 8)
        opts = dict(w=w, loadings=g, unpenalized=unpenalized, seed=3)
        got = cv_lambda(_Design(X), y, family, **opts)
        assert _bits(got) == _bits(cv_lambda(X, y, family, **opts))

    def test_non_finite_design_rejected_like_the_array(self):
        X, y, _, w, g = _design_instance(47, "C")
        X[3, 2] = np.nan
        for arg in (X, _Design(X)):
            with pytest.raises(ValueError, match="finite"):
                lasso_wls(arg, y, w, 1.0, g)

    def test_no_module_keeps_an_array_after_a_fit(self):
        from doublelasso import dml, dml_linear, dml_logit

        def holds_array(value):
            items = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (list, tuple, set)) else ())
            return any(isinstance(v, (np.ndarray, _Design)) for v in (value, *items))

        rng = np.random.default_rng(48)
        X = rng.normal(size=(201, 12))
        d = X[:, 0] + rng.normal(size=201)
        y = (rng.random(201) < 1.0 / (1.0 + np.exp(-(0.5 * d + X[:, 1])))).astype(float)
        dml_logit(y, d, X)
        dml_linear(d + X[:, 2], d, X)
        # The public routines wrap plain arrays themselves.
        g = logistic_lasso_loadings(X, y, 10.0)
        lasso_logistic(X, y, 10.0, g)
        lasso_wls(X, d, np.ones(201), 10.0, wls_lasso_loadings(X, d, np.ones(201), 10.0))
        for module in (lasso, dml):
            held = [name for name, value in vars(module).items() if holds_array(value)]
            assert held == [], f"{module.__name__} holds {held}"


class TestPostRefit:
    def test_full_support_logistic_refit_is_the_mle(self):
        rng = np.random.default_rng(23)
        n, p = 250, 4
        X = rng.normal(size=(n, p))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.3 + X[:, 0])))).astype(float)
        refit = post_refit(X, y, range(p), "logistic")
        want = oracles.newton_logit(np.column_stack([np.ones(n), X]), y)
        assert refit.intercept == pytest.approx(want[0], abs=1e-8)
        np.testing.assert_allclose(refit.coef, want[1:], atol=1e-8)
        assert refit.cov is not None and refit.cov.shape == (p + 1, p + 1)

    def test_empty_support_logistic_intercept_is_the_log_odds(self):
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
        refit = post_refit(np.zeros((6, 2)), y, (), "logistic")
        assert refit.cols == ()
        assert refit.intercept == pytest.approx(0.0, abs=1e-10)  # ybar = 1/2

    def test_empty_support_linear_intercept_is_the_weighted_mean(self):
        y = np.array([1.0, 3.0, 5.0])
        w = np.array([1.0, 1.0, 2.0])
        refit = post_refit(np.zeros((3, 1)), y, (), "linear", w=w)
        assert refit.intercept == pytest.approx(3.5, abs=1e-12)

    def test_refit_loss_never_exceeds_penalized_objective(self):
        for seed in range(10):
            rng = np.random.default_rng(50_000 + seed)
            n, p = 150, 12
            X = rng.normal(size=(n, p))
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X[:, 0] - X[:, 1])))).astype(float)
            lam = 0.5 * plugin_lambda(n, p)
            fit = lasso_logistic(X, y, lam, np.ones(p))
            refit = post_refit(X, y, fit.support, "logistic")
            assert refit.objective <= fit.objective + 1e-12

    def test_refit_loss_bound_holds_for_the_weighted_family(self):
        X, y, w, g = _wls_instance(24)
        lam = 0.3 * lambda_max_wls(X, y, w, g)
        fit = lasso_wls(X, y, w, lam, g)
        refit = post_refit(X, y, fit.support, "linear", w=w * w)
        assert refit.objective <= fit.objective + 1e-12

    def test_refitting_the_refit_support_is_idempotent(self):
        X, y, w, g = _wls_instance(25)
        lam = 0.3 * lambda_max_wls(X, y, w, g)
        fit = lasso_wls(X, y, w, lam, g)
        r1 = post_refit(X, y, fit.support, "linear", w=w * w)
        r2 = post_refit(X, y, r1.cols, "linear", w=w * w)
        assert r1.cols == r2.cols
        np.testing.assert_allclose(r1.coef, r2.coef, atol=1e-12)

    def test_keep_columns_always_enter_the_refit(self):
        X, y, w, _ = _wls_instance(26)
        refit = post_refit(X, y, (2,), "linear", w=w, keep=(0,))
        assert refit.cols == (0, 2)

    def test_out_of_range_column_rejected(self):
        with pytest.raises(ValueError):
            post_refit(np.ones((5, 2)), np.ones(5), (3,), "linear")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            post_refit(np.ones((5, 2)), np.ones(5), (), "probit")


def _solver_case(case):
    """One solver call per case id; returns its LassoFit."""
    if case.startswith("wls"):
        X, y, w, g = _wls_instance(31)
        init = (0.1, np.linspace(-0.2, 0.2, X.shape[1]))
        if case == "wls-plain":
            return lasso_wls(X, y, w, _wls_level(X, y, w, g, True), g)
        if case == "wls-unpenalized-init":
            return lasso_wls(X, y, w, _wls_level(X, y, w, g, True), g, unpenalized=(0,), init=init)
        if case == "wls-no-intercept":
            return lasso_wls(X, y, w, _wls_level(X, y, w, g, False), g, fit_intercept=False)
        # case "wls-tail": select on columns 1.. of a design [d | X]
        Z = np.column_stack([y + X[:, 0], X])
        return lasso_wls(_Design(Z).tail(), y, w, _wls_level(X, y, w, g, True), g)
    if case == "logistic-separable":
        return lasso_logistic(*_separable_instance(), 0.0)
    X, yb, g = _logistic_instance(32)
    lam = 0.3 * plugin_lambda(*X.shape)
    if case == "logistic-plain":
        return lasso_logistic(X, yb, lam, g)
    # case "logistic-unpenalized-init"
    init = (0.1, np.linspace(-0.2, 0.2, X.shape[1]))
    return lasso_logistic(X, yb, lam, g, unpenalized=(0,), init=init)


def _solver_record(case):
    fit = _solver_case(case)
    return {
        "intercept": fit.intercept.hex(),
        "coef_sha": hashlib.sha256(fit.coef.tobytes()).hexdigest()[:16],
        "objective_path_sha": hashlib.sha256(fit.objective_path.tobytes()).hexdigest()[:16],
        "iterations": fit.iterations,
        "converged": fit.converged,
        "support": fit.support,
        "warnings": fit.warnings,
    }


SOLVER_BITS = {
    'wls-plain': {
        'intercept': '-0x1.bf83c296cdfcfp-3',
        'coef_sha': '844e171ebcd2e933',
        'objective_path_sha': 'f4f4c0166f637f09',
        'iterations': 16,
        'converged': True,
        'support': (1, 2, 3, 4, 14),
        'warnings': (),
    },
    'wls-unpenalized-init': {
        'intercept': '-0x1.aabbc114661efp-3',
        'coef_sha': '7ded27d0a131f7fd',
        'objective_path_sha': 'db35b4c391df6fbb',
        'iterations': 21,
        'converged': True,
        'support': (1, 2, 3, 4, 14),
        'warnings': (),
    },
    'wls-no-intercept': {
        'intercept': '0x0.0p+0',
        'coef_sha': '4d67e0e541fd6ff1',
        'objective_path_sha': 'de0fedd717db7aab',
        'iterations': 15,
        'converged': True,
        'support': (1, 2, 3, 4, 14),
        'warnings': (),
    },
    'wls-tail': {
        'intercept': '-0x1.bf83c296cdfcfp-3',
        'coef_sha': '844e171ebcd2e933',
        'objective_path_sha': 'f4f4c0166f637f09',
        'iterations': 16,
        'converged': True,
        'support': (1, 2, 3, 4, 14),
        'warnings': (),
    },
    'logistic-plain': {
        'intercept': '0x1.2e9d72214c752p-2',
        'coef_sha': '833b54bbf1d2bf13',
        'objective_path_sha': 'e931861da204cb35',
        'iterations': 19,
        'converged': True,
        'support': (2, 6),
        'warnings': (),
    },
    'logistic-unpenalized-init': {
        'intercept': '0x1.2f6ded48e3a12p-2',
        'coef_sha': 'cb9d5c0b11f60991',
        'objective_path_sha': '69e0d6365dc16da1',
        'iterations': 20,
        'converged': True,
        'support': (2, 6),
        'warnings': (),
    },
    'logistic-separable': {
        'intercept': '-0x1.1a890e9580a36p+4',
        'coef_sha': '6606a0038efe3322',
        'objective_path_sha': '95ac2997ad7a69b0',
        'iterations': 7802,
        'converged': False,
        'support': (0, 1, 2),
        'warnings': ('possible separation: |eta| exceeded 30 while the loss kept shrinking; coefficients remain bounded by the penalty', 'logistic lasso stopped at the pass cap (200) before reaching tol=1e-08'),
    },
}


class TestSolverBits:
    """Each solver's full output pinned to the bit: estimates, sweep counts,
    objective paths and warnings. To re-record after a change that is meant
    to move them, run

        PYTHONPATH=src python tests/test_lasso.py

    and paste its output over SOLVER_BITS.
    """

    @pytest.mark.parametrize("case", list(SOLVER_BITS))
    def test_solver_output_bits_are_unchanged(self, case):
        assert _solver_record(case) == SOLVER_BITS[case]


if __name__ == "__main__":
    print("SOLVER_BITS = {")
    for case in ("wls-plain", "wls-unpenalized-init", "wls-no-intercept", "wls-tail",
                 "logistic-plain", "logistic-unpenalized-init", "logistic-separable"):
        print(f"    {case!r}: {{")
        for key, value in _solver_record(case).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
