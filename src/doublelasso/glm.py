"""Shared numerical primitives: logistic link, Gram solves, weighted LS.

Every function here is pure and allocation-local, so the module is safe to use
from any number of threads.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib import machinery

import numpy as np

from .errors import RankDeficiencyError

# Fitted probabilities are kept inside [PROB_EPS, 1 - PROB_EPS]: downstream
# variance terms divide by p(1-p), which must stay strictly positive.
PROB_EPS = 1e-10

# Relative pivot floor for Gram solves: 1e-10 * trace(G) / k.
PIVOT_FLOOR_REL = 1e-10


def _compiled_module(name: str, siblings=()):
    """The compiled module `name` (say "scipy.linalg._flapack"), without its package's `__init__`.

    A fit needs two LAPACK wrappers from `scipy.linalg` and three ufuncs from
    `scipy.special`. Importing either package runs far more: `scipy.linalg`
    ~44 modules and ~6 MB of RSS, `scipy.special` scipy's array-API layer,
    whose `from numpy import *` executes `numpy.ma`, `numpy.testing` and
    more. So a module not yet imported is loaded from its file in the
    top-level package's tree and registered in `sys.modules` under its full
    name, where a later import of the package finds it instead of loading it
    again (the package may lack it as an attribute, as `scipy.linalg` lacks
    `_flapack`; `from scipy.linalg import _flapack` finds it). `siblings` are
    the compiled modules of the same package that `name` imports as it
    starts; they are loaded the same way first, since otherwise `name`
    imports its package in a circle and fails.

    A compiled module that fails half-way leaves its package unimportable
    for the whole process, so the path is chosen before any module runs:
    when the package is already imported, or when `name` or a sibling has no
    such file (another layout, or scipy before 1.14, which lacks two of
    `_ufuncs`' siblings), `name` is imported as usual, package first. A
    scipy whose `_ufuncs` imports a further sibling fails loudly at `import
    doublelasso.glm`.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    top, *middle, _ = name.split(".")
    package = name.rpartition(".")[0]
    directory = os.path.join(os.path.dirname(importlib.import_module(top).__file__), *middle)
    finder = machinery.FileFinder(
        directory, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    specs = [finder.find_spec(full) for full in (*(f"{package}.{s}" for s in siblings), name)]
    if package in sys.modules or None in specs:
        return importlib.import_module(name)
    for spec in specs:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[spec.name] = module
    return module


# The LAPACK wrappers `scipy.linalg.cho_factor` and `cho_solve` call.
_lapack = _compiled_module("scipy.linalg._flapack")
# The module whose ufuncs `scipy.special` exports, and the compiled siblings
# it imports as it starts.
_ufuncs = _compiled_module(
    "scipy.special._ufuncs", ("_ufuncs_cxx", "_ellip_harm_2", "_special_ufuncs", "_gufuncs"))
expit, ndtr, ndtri = _ufuncs.expit, _ufuncs.ndtr, _ufuncs.ndtri


def _finite_array(t, name: str) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def binary_outcome(y) -> bool:
    """Whether every entry of y is 0 or 1, as a logistic fit needs.

    One comparison, not `np.unique`: it does not sort, and it does not load
    `numpy.ma`, which a fit otherwise never imports.
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
    # The calls and arguments of cho_factor(G) and cho_solve(cf, b) with
    # check_finite=False; info > 0 is a failed factorisation.
    c, info = _lapack.dpotrf(G, lower=0, clean=0, overwrite_a=0)
    if info == 0 and np.all(np.diag(c) ** 2 > floor):
        return _lapack.dpotrs(c, b, lower=0, overwrite_b=0)[0]
    raise RankDeficiencyError(_offending_columns(G, floor, names))


def _offending_columns(G, floor, names):
    # Only a rank-deficient Gram gets here, so only its fit imports the package.
    from scipy import linalg

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

