"""Shared numerical primitives: logistic link, logistic loss, weighted LS.

Every function here is pure and allocation-local, so the module is safe to use
from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.special import expit

from .errors import RankDeficiencyError

# Fitted probabilities are kept inside [PROB_EPS, 1 - PROB_EPS]: downstream
# variance terms divide by p(1-p), which must stay strictly positive.
PROB_EPS = 1e-10

# Relative pivot floor for Gram solves: 1e-10 * trace(G) / k.
RIDGE_FLOOR_REL = 1e-10


def _finite_array(t, name: str) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def link(t):
    """Logistic link G(t) = exp(t) / (1 + exp(t)), clamped away from 0 and 1.

    Stable for arguments of any finite magnitude; scalar in, scalar out.
    """
    arr = _finite_array(t, "t")
    out = expit(arr)
    if arr.ndim == 0:
        return float(np.clip(out, PROB_EPS, 1.0 - PROB_EPS))
    return np.clip(out, PROB_EPS, 1.0 - PROB_EPS, out=out)


def link_deriv(t):
    """Derivative G'(t) = G(t)(1 - G(t)), computed as expit(t) * expit(-t).

    The product form stays accurate deep in the tails, where the clamped link
    would saturate: link_deriv(50) is ~1.9e-22, not zero.
    """
    arr = _finite_array(t, "t")
    out = expit(arr) * expit(-arr)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class CoefficientVector:
    """Intercept, optional treatment coefficient, and control coefficients."""

    intercept: float
    alpha: float | None
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        head = [self.intercept] if self.alpha is None else [self.intercept, self.alpha]
        if not (np.all(np.isfinite(head)) and np.all(np.isfinite(beta))):
            raise ValueError("coefficients must be finite")


def neg_loglik(coef: CoefficientVector, y, d, X) -> float:
    """Mean logistic loss: average of log(1 + exp(eta_i)) - y_i * eta_i.

    eta_i = intercept + alpha * d_i + x_i . beta. The softplus term is
    evaluated through logaddexp, so huge |eta| neither overflows nor rounds
    the loss to zero (a single y=0 observation at eta=-50 still contributes
    ~1.93e-22).
    """
    y = _finite_array(y, "y")
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a nonempty vector")
    if X.shape != (y.size, coef.beta.size):
        raise ValueError("X has the wrong shape for y and beta")
    eta = coef.intercept + X @ coef.beta
    if coef.alpha is not None:
        d = _finite_array(d, "d")
        if d.shape != y.shape:
            raise ValueError("d must match y in length")
        eta = eta + coef.alpha * d
    return float(np.mean(np.logaddexp(0.0, eta) - y * eta))


def solve_spd(G, b, *, names=None, rescue: bool = False):
    """Solve G x = b for a symmetric PSD Gram matrix with a pivot check.

    Returns (x, note). A Cholesky pivot at or below the relative floor
    1e-10 * trace(G)/k means rank deficiency: by default the offending
    columns are identified and RankDeficiencyError is raised; with
    rescue=True the floor is added to the diagonal instead and the note
    reports that the ridge floor activated.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    k = G.shape[0]
    if k == 0:
        return np.zeros(0), None
    floor = RIDGE_FLOOR_REL * float(np.trace(G)) / k
    try:
        cf = linalg.cho_factor(G, check_finite=False)
        piv_sq = np.diag(cf[0]) ** 2
        if np.all(piv_sq > floor):
            return linalg.cho_solve(cf, b, check_finite=False), None
    except linalg.LinAlgError:
        pass
    if rescue:
        x = linalg.solve(G + floor * np.eye(k), b, assume_a="pos", check_finite=False)
        return x, "ridge floor activated in rank-deficient solve"
    raise RankDeficiencyError(_offending_columns(G, floor, names))


def _offending_columns(G, floor, names):
    # Pivoted QR of the Gram: diagonal magnitudes track its singular values,
    # and the trailing pivots name the (near-)dependent columns.
    _, R, piv = linalg.qr(G, pivoting=True, check_finite=False)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > floor))
    bad = sorted(int(j) for j in piv[rank:])
    if not bad:
        bad = [int(piv[-1])]
    if names is not None:
        return [names[j] for j in bad]
    return bad


def wls_fit(X, y, w, *, names=None) -> np.ndarray:
    """Weighted least squares: argmin_b sum_i w_i (y_i - x_i . b)^2.

    Zero-weight rows are dropped before solving; at least k positive-weight
    rows are required. A Gram pivot below 1e-10 * trace/k raises
    RankDeficiencyError naming the offending columns (by index, or by name
    when `names` is given).
    """
    X = np.asarray(X, dtype=float)
    y = _finite_array(y, "y")
    w = _finite_array(w, "w")
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if X.shape[0] != y.size or w.shape != y.shape:
        raise ValueError("X, y, w must agree in length")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    keep = w > 0
    Xk = X[keep]
    n, k = Xk.shape
    if n < k:
        raise ValueError(f"need at least {k} positive-weight rows, have {n}")
    sw = np.sqrt(w[keep])
    Xw = Xk * sw[:, None]
    yw = y[keep] * sw
    coef, _ = solve_spd(Xw.T @ Xw, Xw.T @ yw, names=names)
    return coef


def wls_fit_rescued(X, y, w, *, names=None):
    """Like wls_fit, but a deficient Gram gets the documented ridge floor.

    Returns (coef, note); note is None on the clean path and the activation
    report when the floor was added.
    """
    X = np.asarray(X, dtype=float)
    y = _finite_array(y, "y")
    w = _finite_array(w, "w")
    keep = w > 0
    Xk = X[keep]
    sw = np.sqrt(w[keep])
    Xw = Xk * sw[:, None]
    return solve_spd(Xw.T @ Xw, Xw.T @ (y[keep] * sw), names=names, rescue=True)
