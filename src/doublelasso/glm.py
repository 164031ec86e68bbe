"""Shared numerical primitives: logistic link, Gram solves, weighted LS.

Every function here is pure and allocation-local, so the module is safe to use
from any number of threads.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg
from scipy.special import expit

from .errors import RankDeficiencyError

# Fitted probabilities are kept inside [PROB_EPS, 1 - PROB_EPS]: downstream
# variance terms divide by p(1-p), which must stay strictly positive.
PROB_EPS = 1e-10

# Relative pivot floor for Gram solves: 1e-10 * trace(G) / k.
PIVOT_FLOOR_REL = 1e-10


def _finite_array(t, name: str) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def binary_outcome(y) -> bool:
    """Whether every entry of y is 0 or 1, as a logistic fit needs.

    One comparison, not `np.unique`: it does not sort, and it does not read
    `numpy.ma`, which a command's process defers (see `__main__`).
    """
    return bool(np.all((y == 0.0) | (y == 1.0)))


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


def solve_spd(G, b, *, names=None):
    """Solve G x = b for a symmetric PSD Gram matrix with a pivot check.

    A Cholesky pivot at or below the relative floor 1e-10 * trace(G)/k
    means rank deficiency: the offending columns are identified and
    RankDeficiencyError is raised.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    k = G.shape[0]
    if k == 0:
        return np.zeros(0)
    floor = PIVOT_FLOOR_REL * float(np.trace(G)) / k
    try:
        cf = linalg.cho_factor(G, check_finite=False)
        piv_sq = np.diag(cf[0]) ** 2
        if np.all(piv_sq > floor):
            return linalg.cho_solve(cf, b, check_finite=False)
    except linalg.LinAlgError:
        pass
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
    return solve_spd(Xw.T @ Xw, Xw.T @ yw, names=names)

