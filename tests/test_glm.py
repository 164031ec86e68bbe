"""Numerical primitives: logistic link, logistic loss, weighted least squares."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelasso import RankDeficiencyError
from doublelasso.glm import link, link_deriv, solve_spd, wls_fit
from oracles import CoefficientVector, neg_loglik, wls_fit_rescued

LN3 = math.log(3.0)


class TestLink:
    def test_zero_maps_to_half(self):
        assert link(0.0) == 0.5

    def test_log3_maps_to_three_quarters(self):
        assert link(LN3) == pytest.approx(0.75, abs=1e-12)
        assert link(-LN3) == pytest.approx(0.25, abs=1e-12)

    def test_extreme_arguments_stay_strictly_inside_unit_interval(self):
        assert 0.0 < link(-1000.0) < link(1000.0) < 1.0

    def test_vector_input_returns_array(self):
        out = link(np.array([0.0, LN3]))
        np.testing.assert_allclose(out, [0.5, 0.75], atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            link(float("nan"))


class TestLinkDeriv:
    def test_peak_value_at_zero(self):
        assert link_deriv(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_log3_value(self):
        # G(ln 3) = 3/4, so the derivative is 3/4 * 1/4.
        assert link_deriv(LN3) == pytest.approx(0.1875, abs=1e-12)

    def test_deep_tail_is_tiny_but_positive(self):
        v = link_deriv(50.0)
        assert 0.0 < v < 1e-20

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_matches_product_identity(self, t):
        # The clamp on link() is inactive for |t| <= 20, so the identity
        # G' = G (1 - G) holds to near machine precision there.
        g = link(t)
        assert abs(link_deriv(t) - g * (1.0 - g)) <= 1e-12


class TestNegLoglik:
    def test_all_zero_coefficients_give_log_two(self):
        coef = CoefficientVector(0.0, 0.0, np.zeros(2))
        y = np.array([0.0, 1.0, 1.0])
        d = np.zeros(3)
        X = np.zeros((3, 2))
        assert neg_loglik(coef, y, d, X) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_single_observation_values(self):
        coef = CoefficientVector(LN3, None, np.zeros(0))
        X = np.zeros((1, 0))
        got = neg_loglik(coef, np.array([1.0]), None, X)
        assert got == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)
        assert got == pytest.approx(0.2876820724517809, abs=1e-15)

    def test_tail_loss_does_not_round_to_zero(self):
        # y=0 at eta=-50 contributes log(1 + e^-50) ~ 1.93e-22, not 0.
        coef = CoefficientVector(-50.0, None, np.zeros(0))
        got = neg_loglik(coef, np.array([0.0]), None, np.zeros((1, 0)))
        assert got == pytest.approx(math.log1p(math.exp(-50.0)), rel=1e-12)
        assert got > 0.0

    def test_convex_in_the_linear_index(self):
        rng = np.random.default_rng(7)
        y = (rng.random(40) < 0.5).astype(float)
        X = rng.normal(size=(40, 3))
        d = rng.normal(size=40)

        def loss(a, b0, b):
            return neg_loglik(CoefficientVector(b0, a, b), y, d, X)

        for _ in range(25):
            c1 = (rng.normal(), rng.normal(), rng.normal(size=3))
            c2 = (rng.normal(), rng.normal(), rng.normal(size=3))
            mid = tuple((u + v) / 2.0 for u, v in zip(c1, c2))
            assert loss(*mid) <= 0.5 * (loss(*c1) + loss(*c2)) + 1e-10

    def test_shape_mismatch_rejected(self):
        coef = CoefficientVector(0.0, None, np.zeros(2))
        with pytest.raises(ValueError):
            neg_loglik(coef, np.array([1.0]), None, np.zeros((1, 3)))


def _mp_wls(X, y, w):
    """Extended-precision weighted LS oracle via mpmath normal equations."""
    with mpmath.workdps(60):
        n, k = X.shape
        Xm = mpmath.matrix([[mpmath.mpf(X[i, j]) for j in range(k)] for i in range(n)])
        G = mpmath.zeros(k, k)
        b = mpmath.zeros(k, 1)
        for i in range(n):
            wi = mpmath.mpf(w[i])
            for a in range(k):
                b[a] += wi * Xm[i, a] * mpmath.mpf(y[i])
                for c in range(k):
                    G[a, c] += wi * Xm[i, a] * Xm[i, c]
        sol = mpmath.lu_solve(G, b)
        return np.array([float(sol[j]) for j in range(k)])


class TestWlsFit:
    def test_identity_design_recovers_response(self):
        X = np.eye(2)
        got = wls_fit(X, np.array([3.0, 4.0]), np.ones(2))
        np.testing.assert_allclose(got, [3.0, 4.0], atol=1e-12)

    def test_constant_column_gives_weighted_mean(self):
        X = np.ones((4, 1))
        y = np.array([1.0, 2.0, 3.0, 2.0])
        got = wls_fit(X, y, np.ones(4))
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_weight_rows_are_ignored(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([1.0, 1.0, 100.0])
        got = wls_fit(X, y, np.array([1.0, 1.0, 0.0]))
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        w = rng.random(60) + 0.1
        got = wls_fit(X, y, w)
        want = _mp_wls(X, y, w)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_weighted_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        w = rng.random(80) + 0.5
        coef = wls_fit(X, y, w)
        r = y - X @ coef
        score = (w * r) @ X
        scale = float(np.max(np.abs((w * y) @ X))) + 1.0
        assert np.max(np.abs(score)) <= 1e-8 * scale

    def test_duplicate_column_raises_and_names_it(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=20)
        X = np.column_stack([x, x, rng.normal(size=20)])
        with pytest.raises(RankDeficiencyError) as ei:
            wls_fit(X, rng.normal(size=20), np.ones(20), names=["a", "a_copy", "b"])
        assert "a_copy" in str(ei.value) or "a" in str(ei.value)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            wls_fit(np.ones((2, 1)), np.ones(2), np.array([1.0, -1.0]))

    def test_too_few_positive_weight_rows_rejected(self):
        X = np.eye(3)
        with pytest.raises(ValueError):
            wls_fit(X, np.ones(3), np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_instances_match_lstsq(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        k = int(rng.integers(1, 5))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        w = rng.random(n) + 0.05
        got = wls_fit(X, y, w)
        sw = np.sqrt(w)
        want, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


class TestSolveSpd:
    def test_empty_system(self):
        x = solve_spd(np.zeros((0, 0)), np.zeros(0))
        assert x.size == 0

    def test_plain_solve(self):
        G = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = solve_spd(G, np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)

    def test_without_rescue_singular_matrix_raises(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankDeficiencyError):
            solve_spd(G, np.array([1.0, 1.0]))


class TestWlsFitRescued:
    def test_clean_path_matches_plain_fit(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        w = np.ones(30)
        coef, note = wls_fit_rescued(X, y, w)
        np.testing.assert_allclose(coef, wls_fit(X, y, w), atol=1e-12)
        assert note is None

    def test_deficient_design_returns_note_instead_of_raising(self):
        x = np.arange(10.0)
        X = np.column_stack([x, 2.0 * x])
        coef, note = wls_fit_rescued(X, x, np.ones(10))
        assert note is not None
        assert np.all(np.isfinite(coef))
