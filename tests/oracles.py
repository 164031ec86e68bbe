"""Independent reference implementations used as test oracles.

Nothing here calls into the package's solvers: quantiles come from mpmath's
erfinv, the logistic MLE from a plain Newton iteration on numpy, and the
stationarity (KKT) gaps are computed directly from the objective definitions.
The scalar soft-threshold, the logistic loss and the ridge-floored weighted
least squares are numpy-only references for the solvers' building blocks.
"""

from dataclasses import dataclass

import mpmath
import numpy as np


def normal_quantile(q: float) -> float:
    """Standard normal quantile via erfinv at 50 decimal digits."""
    with mpmath.workdps(50):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(q) - 1))


def newton_logit(Z, y, *, tol=1e-12, max_iter=200):
    """Unpenalized logistic MLE by full-step Newton iteration."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    coef = np.zeros(Z.shape[1])
    for _ in range(max_iter):
        eta = Z @ coef
        p = 1.0 / (1.0 + np.exp(-eta))
        g = Z.T @ (y - p)
        H = Z.T @ (Z * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(H, g)
        coef = coef + step
        if np.max(np.abs(step)) < tol:
            break
    return coef


def wls_kkt_gaps(X, y, w, fit):
    """Stationarity gaps of a weighted-linear lasso solution.

    The objective is mean w^2 r^2 + (lam/n) sum loading |theta|; multiplying
    by n, a support coordinate must satisfy 2 sum w^2 r x_j = lam loading_j
    sign(theta_j) and an inactive one |2 sum w^2 r x_j| <= lam loading_j.
    Returns (support_gap, outside_excess, intercept_gap), each normalized.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(w, dtype=float) ** 2
    r = y - fit.intercept - X @ fit.coef
    score = 2.0 * ((W * r) @ X)
    lamg = fit.penalty * fit.loadings
    sup_gap = 0.0
    out_excess = 0.0
    support = set(fit.support)
    for j in range(X.shape[1]):
        norm = max(1.0, lamg[j])
        if j in support:
            g = abs(score[j] - lamg[j] * np.sign(fit.coef[j])) / norm
            sup_gap = max(sup_gap, g)
        elif fit.coef[j] == 0.0:
            out_excess = max(out_excess, (abs(score[j]) - lamg[j]) / norm)
    icpt_gap = abs(float(W @ r)) / max(1.0, abs(float(W @ y)))
    return sup_gap, out_excess, icpt_gap


def logistic_kkt_gaps(X, y, fit):
    """Stationarity gaps of a penalized logistic solution.

    Gradient of the mean loss is mean[(G(eta) - y) x_j]; on the support it
    must cancel (lam/n) loading_j sign(theta_j), off the support it must not
    exceed that threshold.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    eta = fit.intercept + X @ fit.coef
    p = 1.0 / (1.0 + np.exp(-eta))
    grad = ((p - y) @ X) / n
    thr = fit.penalty * fit.loadings / n
    sup_gap = 0.0
    out_excess = 0.0
    support = set(fit.support)
    for j in range(X.shape[1]):
        norm = max(1.0, thr[j])
        if j in support:
            g = abs(grad[j] + thr[j] * np.sign(fit.coef[j])) / norm
            sup_gap = max(sup_gap, g)
        elif fit.coef[j] == 0.0:
            out_excess = max(out_excess, (abs(grad[j]) - thr[j]) / norm)
    icpt_gap = abs(float(np.mean(p - y)))
    return sup_gap, out_excess, icpt_gap


def orthonormal_solution(Q, y, lam, loadings):
    """Closed-form lasso solution for orthonormal columns, no intercept."""
    Q = np.asarray(Q, dtype=float)
    rho = Q.T @ np.asarray(y, dtype=float)
    t = lam * np.asarray(loadings, dtype=float) / 2.0
    return np.sign(rho) * np.maximum(np.abs(rho) - t, 0.0)


def soft_threshold(z: float, t: float) -> float:
    """Soft-thresholding: sign(z) * max(|z| - t, 0), exactly 0 in the dead zone."""
    z = float(z)
    t = float(t)
    if not (np.isfinite(z) and np.isfinite(t)):
        raise ValueError("arguments must be finite")
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


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
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or y.size == 0 or not np.all(np.isfinite(y)):
        raise ValueError("y must be a nonempty finite vector")
    if X.shape != (y.size, coef.beta.size):
        raise ValueError("X has the wrong shape for y and beta")
    eta = coef.intercept + X @ coef.beta
    if coef.alpha is not None:
        d = np.asarray(d, dtype=float)
        if d.shape != y.shape or not np.all(np.isfinite(d)):
            raise ValueError("d must be finite and match y in length")
        eta = eta + coef.alpha * d
    return float(np.mean(np.logaddexp(0.0, eta) - y * eta))


def wls_fit_rescued(X, y, w, *, floor_rel=1e-10):
    """Weighted least squares whose deficient Gram gets a ridge floor.

    Solves the weighted normal equations by Cholesky. When a pivot falls at
    or below floor_rel * trace(G) / k, the floor is added to the diagonal
    instead of raising. Returns (coef, note); note is None on the clean
    path and reports the activation otherwise.
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(w, dtype=float)
    keep = w > 0
    sw = np.sqrt(w[keep])
    Xw = X[keep] * sw[:, None]
    G = Xw.T @ Xw
    b = Xw.T @ (np.asarray(y, dtype=float)[keep] * sw)
    floor = floor_rel * float(np.trace(G)) / G.shape[0]
    try:
        L = np.linalg.cholesky(G)
        if np.all(np.diag(L) ** 2 > floor):
            return np.linalg.solve(L.T, np.linalg.solve(L, b)), None
    except np.linalg.LinAlgError:
        pass
    coef = np.linalg.solve(G + floor * np.eye(G.shape[0]), b)
    return coef, "ridge floor activated in rank-deficient solve"
