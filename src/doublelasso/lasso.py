"""Penalized regression engine.

Coordinate-descent lasso for the weighted linear objective and the logistic
objective, the plug-in penalty level with data-driven loadings, unpenalized
post-selection refits, and a K-fold cross-validation alternative.

Conventions used throughout:

* the weighted-linear objective is  mean_i w_i^2 (y_i - x_i.theta)^2
  + (lam/n) * sum_j loading_j |theta_j|  -- note the weights enter squared;
* the logistic objective is  mean_i [log(1+exp(eta_i)) - y_i eta_i]
  + (lam/n) * sum_j loading_j |theta_j|;
* the intercept is always present and never penalized; only lasso_wls
  can leave it out (fit_intercept=False);
* `unpenalized` columns take no penalty but are not counted in the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .config import CV_FOLDS, CV_GRID, CV_MIN_RATIO, PLUGIN_C
from .glm import PROB_EPS, link, solve_spd

_OBJ_SLACK = 1e-12  # relative slack when comparing recorded objective values
_MAX_SWEEPS = 10_000  # coordinate sweeps per solve, across all logistic passes
_MAX_OUTER = 200  # reweighting passes per logistic solve


def _prob(eta):
    """Clamped 1 / (1 + exp(-eta)) for the solvers' curvature weights.

    Not glm.link: numpy's exp and scipy's expit differ in the last bits,
    and every solver output is pinned to this arithmetic.
    """
    return np.clip(1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700))), PROB_EPS, 1.0 - PROB_EPS)


def plugin_lambda(n: int, p: int) -> float:
    """Plug-in penalty level PLUGIN_C * sqrt(n) * PhiInv(1 - gamma / (2 p))
    with gamma = 0.1 / log(n), which requires n >= 2."""
    if n < 2 or p < 1:
        raise ValueError("plugin_lambda needs n >= 2 and p >= 1")
    gamma = 0.1 / math.log(n)
    return PLUGIN_C * math.sqrt(n) * float(ndtri(1.0 - gamma / (2.0 * p)))


@dataclass(frozen=True)
class LassoFit:
    """Solution of one penalized problem.

    `support` lists the penalized coordinates with nonzero coefficients;
    unpenalized columns (and the intercept) are never part of it.
    `objective_path` holds the penalized objective after every recorded sweep
    and is nonincreasing.
    """

    intercept: float
    coef: np.ndarray
    support: tuple[int, ...]
    penalty: float
    loadings: np.ndarray
    iterations: int
    converged: bool
    objective: float
    objective_path: np.ndarray
    warnings: tuple[str, ...] = ()


class _Design:
    """A design matrix with the arrays the solvers derive from it.

    One selection step builds one and passes it where X goes, so its
    loadings, cross-validation and final lasso share one Fortran copy, one
    X * X and one finiteness check, each made on first use. `X` keeps the
    layout it was given, so every product with it runs the same BLAS kernel
    as on the plain array. Nothing holds a design beyond the call that
    built it.

    The fitters build one design of Z = [d | X], column 0 the treatment,
    and select controls on `tail()`, which is X without a copy.
    """

    def __init__(self, X):
        self.X = np.asarray(X, dtype=float)

    def tail(self) -> _Design:
        """Columns 1.. as views of this design's arrays, with no copy.

        A slice keeps each array's layout: the C views keep their rows with
        a longer stride, and the Fortran view is one contiguous block.
        """
        tail = _Design(self.X[:, 1:])
        tail.Xf, tail.Xsq = self.Xf[:, 1:], self.Xsq[:, 1:]
        if self.finite:
            tail.finite = True
        return tail

    @cached_property
    def Xf(self) -> np.ndarray:
        return np.asfortranarray(self.X)

    @cached_property
    def Xsq(self) -> np.ndarray:
        return self.X * self.X

    @cached_property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.X)))


def _design(X) -> _Design:
    return X if isinstance(X, _Design) else _Design(X)


def _validate_common(X, y, lam, loadings, unpenalized):
    design = _design(X)
    X = design.X
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or y.ndim != 1:
        raise ValueError("X must be (n, p) and y length n")
    if y.size == 0:
        raise ValueError("empty data")
    if not (design.finite and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    if not math.isfinite(lam) or lam < 0:
        raise ValueError("penalty level must be a nonnegative real")
    p = X.shape[1]
    if loadings is None:
        loadings = np.ones(p)
    else:
        loadings = np.asarray(loadings, dtype=float)
        if loadings.shape != (p,) or not np.all(np.isfinite(loadings)) or np.any(loadings <= 0):
            raise ValueError("loadings must be a positive vector of length p")
    unpen = np.zeros(p, dtype=bool)
    for j in unpenalized:
        jj = int(j)
        if not 0 <= jj < p:
            raise ValueError(f"unpenalized index {jj} out of range")
        unpen[jj] = True
    return design, y, float(lam), loadings, unpen


def _start(init, p: int, fit_intercept: bool):
    """(intercept, coef) to start a solver from: zero, or a copy of `init`."""
    if init is None:
        return 0.0, np.zeros(p)
    intercept, coef = init
    intercept = float(intercept)
    coef = np.array(coef, dtype=float)
    if coef.shape != (p,) or not (math.isfinite(intercept) and np.all(np.isfinite(coef))):
        raise ValueError("init must be a finite (intercept, coef) with coef of length p")
    if not fit_intercept and intercept != 0.0:
        raise ValueError("init intercept must be 0 when fit_intercept=False")
    return intercept, coef


def _sweep(xcols, xwcols, Wvec, sumW, r, coef, intercept, col_sq, thr, penal, idx, fit_intercept):
    """One coordinate pass over `idx`; mutates r and the list coef in place.

    `xcols` and `xwcols` hold the columns of X and of the weighted X;
    col_sq, thr, penal and coef are Python lists, which index faster than
    arrays and give the same doubles.
    """
    max_d = 0.0
    if fit_intercept and sumW > 0.0:
        dc = float(r.dot(Wvec)) / sumW
        if dc != 0.0:
            intercept += dc
            r -= dc
            max_d = abs(dc)
    for j in idx:
        cj = col_sq[j]
        if cj <= 0.0:
            continue
        old = coef[j]
        rho = float(r.dot(xwcols[j])) + cj * old
        if penal[j]:
            t = thr[j]
            if rho > t:
                new = (rho - t) / cj
            elif rho < -t:
                new = (rho + t) / cj
            else:
                new = 0.0
        else:
            new = rho / cj
        d = new - old
        if d != 0.0:
            coef[j] = new
            r -= xcols[j] * d
            ad = abs(d)
            if ad > max_d:
                max_d = ad
    return intercept, max_d


def _cd_solve(design, W, r, coef, intercept, thr, penal, fit_intercept, tol, budget, record):
    """Full sweep + active-set cycling on the quadratic with row weights W
    until the sup-norm change drops below tol.

    Builds the weighted columns design.Xf * W and their weighted squared
    norms W @ design.Xsq itself. Mutates r and coef in place and returns
    (intercept, sweeps_used, converged). `record`, when given, is called
    after every sweep, with coef up to date, to append an objective value.
    """
    Xf = design.Xf
    xcols = list(Xf.T)  # contiguous column views of the Fortran-ordered arrays
    xwcols = list((Xf * W[:, None]).T)  # Fortran order like Xf, same products as X * W
    cl = coef.tolist()
    col_sq, thr, penal = (W @ design.Xsq).tolist(), thr.tolist(), penal.tolist()
    sumW = float(W.sum())
    sweeps = 0

    def sweep(idx):
        nonlocal intercept, sweeps
        intercept, md = _sweep(xcols, xwcols, W, sumW, r, cl, intercept,
                               col_sq, thr, penal, idx, fit_intercept)
        sweeps += 1
        if record is not None:
            coef[:] = cl
            record()
        return md

    full = range(coef.size)
    converged = False
    while sweeps < budget:
        if sweep(full) < tol:
            converged = True
            break
        # Cycling visits only the active set, so a coordinate that left it
        # stays zero and never needs rechecking before the next full sweep.
        active = [j for j in full if cl[j] != 0.0 or not penal[j]]
        while sweeps < budget and active:
            if sweep(active) < tol:
                break
            active = [j for j in active if cl[j] != 0.0 or not penal[j]]
    coef[:] = cl
    return intercept, sweeps, converged


def _result(intercept, coef, penal, lam, loadings, sweeps, converged, path, notes) -> LassoFit:
    """The LassoFit of a finished solve; its support is the nonzero penalized coordinates."""
    return LassoFit(
        intercept=float(intercept),
        coef=coef,
        support=tuple(int(j) for j in np.flatnonzero(coef) if penal[j]),
        penalty=lam,
        loadings=loadings,
        iterations=sweeps,
        converged=converged,
        objective=path[-1],
        objective_path=np.asarray(path),
        warnings=tuple(notes),
    )


def lasso_wls(X, y, w, lam, loadings=None, *, fit_intercept: bool = True,
              unpenalized=(), tol: float = 1e-8, init=None) -> LassoFit:
    """Weighted-linear lasso by cyclic coordinate descent with active-set cycling.

    Minimizes mean_i w_i^2 (y_i - c - x_i.theta)^2 + (lam/n) sum_j loading_j
    |theta_j|. Stops when the largest coefficient change in a sweep falls
    below `tol` or after _MAX_SWEEPS sweeps (then converged=False and a
    warning is attached). `init=(intercept, coef)` starts the descent from
    that point instead of zero (a warm start along a path). Zero-variance
    columns keep their starting coefficient, which is 0 unless `init` says
    otherwise. `X` may be a prepared `_Design`, whose derived arrays are
    then reused instead of rebuilt.
    """
    design, y, lam, loadings, unpen = _validate_common(X, y, lam, loadings, unpenalized)
    X = design.X
    w = np.asarray(w, dtype=float)
    if w.shape != y.shape or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("w must be a nonnegative vector matching y")
    n, p = X.shape
    W = w * w
    penal = ~unpen
    thr = np.where(penal, lam * loadings / 2.0, 0.0)

    intercept, coef = _start(init, p, fit_intercept)
    r = y - intercept - X @ coef
    pen_load = np.where(penal, loadings, 0.0)

    def objective() -> float:
        return float(W @ (r * r)) / n + (lam / n) * float(pen_load @ np.abs(coef))

    path = [objective()]
    intercept, sweeps, converged = _cd_solve(
        design, W, r, coef, intercept, thr, penal, fit_intercept,
        tol, _MAX_SWEEPS, lambda: path.append(objective()),
    )
    notes = () if converged else (
        f"weighted lasso stopped at the sweep cap ({_MAX_SWEEPS}) before reaching tol={tol:g}",)
    return _result(intercept, coef, penal, lam, loadings, sweeps, converged, path, notes)


def lasso_logistic(X, y, lam, loadings=None, *, unpenalized=(), tol: float = 1e-8,
                   init=None) -> LassoFit:
    """Penalized logistic regression by iteratively reweighted coordinate descent.

    Each outer pass builds the curvature-weighted quadratic at the current
    fit and solves it by coordinate descent. If a pass ever increases the
    penalized objective, it is redone from the previous iterate with the
    global curvature bound 0.25, which majorizes the logistic loss along
    every coordinate, so the recorded objective sequence is nonincreasing.
    The descent starts from the log-odds intercept and zero coefficients,
    or from `init=(intercept, coef)` when given (a warm start along a path).
    It stops after _MAX_OUTER passes or _MAX_SWEEPS sweeps in all, with a
    warning. `X` may be a prepared `_Design`, whose derived arrays are then
    reused instead of rebuilt.
    """
    design, y, lam, loadings, unpen = _validate_common(X, y, lam, loadings, unpenalized)
    X = design.X
    uniq = np.unique(y)
    if not np.isin(uniq, (0.0, 1.0)).all():
        raise ValueError("outcome must be binary 0/1 for the logistic objective")
    n, p = X.shape
    penal = ~unpen
    thr = np.where(penal, lam * loadings, 0.0)  # quadratic carries a 1/2 factor
    pen_load = np.where(penal, loadings, 0.0)

    intercept, coef = _start(init, p, True)
    if init is None:
        ybar = float(np.mean(y))
        intercept = float(np.log((ybar + PROB_EPS) / (1.0 - ybar + PROB_EPS)))
    eta = np.full(n, intercept) + X @ coef

    def objective() -> float:
        return float(np.mean(np.logaddexp(0.0, eta) - y * eta)) \
            + (lam / n) * float(pen_load @ np.abs(coef))

    path = [objective()]
    notes: list[str] = []
    sep_warned = False
    total_sweeps = 0
    converged = False

    for _ in range(_MAX_OUTER):
        prev_intercept = intercept
        prev_coef = coef.copy()
        prev_obj = path[-1]
        p_hat = _prob(eta)

        def quad_pass(om):
            """At most 50 sweeps on the quadratic with curvature weights om."""
            nonlocal intercept, total_sweeps, eta
            budget = min(50, max(1, _MAX_SWEEPS - total_sweeps))
            intercept, used, _ = _cd_solve(
                design, om, (y - p_hat) / om, coef, intercept, thr, penal,
                True, tol, budget, None,
            )
            total_sweeps += used
            eta = intercept + X @ coef

        quad_pass(p_hat * (1.0 - p_hat))
        new_obj = objective()
        if new_obj > prev_obj + _OBJ_SLACK * (1.0 + abs(prev_obj)):
            # Newton quadratic overshot: retry from the previous iterate with
            # the provable 0.25 majorizer.
            intercept = prev_intercept
            coef[:] = prev_coef
            eta = intercept + X @ coef
            quad_pass(np.full(n, 0.25))
            new_obj = objective()
            if new_obj > prev_obj + _OBJ_SLACK * (1.0 + abs(prev_obj)):
                # No descent available beyond rounding noise: stay put.
                intercept = prev_intercept
                coef[:] = prev_coef
                eta = intercept + X @ coef
                new_obj = prev_obj
                converged = True
        path.append(new_obj)
        if not sep_warned and float(np.max(np.abs(eta))) > 30.0:
            notes.append(
                "possible separation: |eta| exceeded 30 while the loss kept shrinking; "
                "coefficients remain bounded by the penalty"
            )
            sep_warned = True
        delta = max(
            abs(intercept - prev_intercept),
            float(np.max(np.abs(coef - prev_coef))) if p else 0.0,
        )
        if delta < tol:
            converged = True
        if converged:
            break
        if total_sweeps >= _MAX_SWEEPS:
            notes.append(
                f"logistic lasso stopped at the sweep cap ({_MAX_SWEEPS}) before reaching tol={tol:g}"
            )
            break
    else:
        notes.append(
            f"logistic lasso stopped at the pass cap ({_MAX_OUTER}) before reaching tol={tol:g}"
        )

    return _result(intercept, coef, penal, lam, loadings, total_sweeps, converged, path, notes)


def _floor_loadings(g: np.ndarray) -> np.ndarray:
    top = float(np.max(g)) if g.size else 0.0
    if top <= 0.0:
        return np.ones_like(g)
    return np.maximum(g, 1e-10 * top)


def wls_lasso_loadings(X, y, w, lam, *, unpenalized=()) -> np.ndarray:
    """Heteroskedasticity-matched loadings sqrt(mean[w^2 x_j^2 u^2]) for lasso_wls.

    The pilot u is the weighted intercept-only residual, which makes the
    pilot loading a weighted column norm times the response scale; one
    refinement refits with the pilot loadings and recomputes u from that
    fit's residuals. `X` may be a prepared `_Design`, which the refit then
    shares.
    """
    design = _design(X)
    X = design.X
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    W = w * w
    n = y.size
    sumW = float(W.sum())
    ybar = float(W @ y) / sumW if sumW > 0 else 0.0
    u = w * (y - ybar)
    col = np.sqrt(W @ design.Xsq / n)
    pilot = _floor_loadings(col * math.sqrt(float(np.mean(u * u))))
    fit = lasso_wls(design, y, w, lam, pilot, unpenalized=unpenalized)
    u = w * (y - fit.intercept - X @ fit.coef)
    return _floor_loadings(np.sqrt((W * u * u) @ design.Xsq / n))


def logistic_lasso_loadings(X, y, lam, *, unpenalized=()) -> np.ndarray:
    """Score-matched loadings sqrt(mean[(y - p_hat)^2 x_j^2]) for lasso_logistic.

    The pilot uses the intercept-only residual (y - ybar); one refinement
    uses the fitted probabilities of a penalized fit with the pilot
    loadings. `X` may be a prepared `_Design`, which the refit then shares.
    """
    design = _design(X)
    X = design.X
    y = np.asarray(y, dtype=float)
    n = y.size
    u2 = (y - float(np.mean(y))) ** 2
    pilot = _floor_loadings(np.sqrt(u2 @ design.Xsq / n))
    fit = lasso_logistic(design, y, lam, pilot, unpenalized=unpenalized)
    u2 = (y - link(fit.intercept + X @ fit.coef)) ** 2
    return _floor_loadings(np.sqrt(u2 @ design.Xsq / n))


def lambda_max_wls(X, y, w, loadings) -> float:
    """Smallest penalty that zeroes every penalized coordinate of lasso_wls.

    The response is first centered at its weighted mean; the level is
    max_j |2 sum_i w_i^2 y_i x_ij| / loading_j on the centered response.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    W = w * w
    sumW = float(W.sum())
    yc = y - (float(W @ y) / sumW if sumW > 0 else 0.0)
    score = 2.0 * ((W * yc) @ X)
    return float(np.max(np.abs(score) / loadings))


def _lambda_max_logistic(X, y, loadings):
    yc = y - float(np.mean(y))
    score = yc @ X  # n * mean[(y - ybar) x_j]
    return float(np.max(np.abs(score) / loadings))


def cv_lambda(X, y, family: str, *, loadings, w=None, unpenalized=(),
              seed: int = 0, notes: list | None = None) -> float:
    """CV_FOLDS-fold cross-validated penalty level on a geometric grid of
    CV_GRID levels, from the smallest all-zero level down to CV_MIN_RATIO
    of it.

    Folds come from a counter-based generator seeded by `seed`, so the split
    is reproducible across platforms and job counts. The grid is set on the
    full design. Each fold solves it as a path, from the largest level
    (which zeroes every penalized coordinate) down, as glmnet does:

    * The fold's training columns are centered at their training means,
      and its held-out rows by the same means. The unpenalized intercept
      absorbs the shift, so the problem is unchanged, but the intercept no
      longer zig-zags against uncentered columns. A column constant on the
      training rows becomes exact zeros, so the solvers skip it as they
      skip any zero-variance column.
    * The first two levels start from zero and from the first solution.
      From the third on, a level starts from the linear extrapolation of
      the previous two solutions in lambda, intercept included; a
      coordinate that is zero at the previous level starts at zero. The
      weighted linear solution is affine in lambda while its active set
      holds, so such a start is exact there.

    Held-out loss is the family deviance (weighted squared error for
    "linear", mean logistic loss for "logistic"). The minimizer of the mean
    loss is returned; levels whose mean losses differ from the minimum by
    rounding alone (1e-9 relative) count as tied, and ties go to the largest
    level, so path and cold starts select the same one. Only the level
    leaves this function: the caller's final fit at it is cold-started on
    the raw design. `loadings` are the penalty loadings every fold solve
    uses. `X` may be a prepared `_Design`. When fold solves stop at a
    solver cap before converging, one warning that counts them is appended
    to `notes`, if given.
    """
    if family not in ("linear", "logistic"):
        raise ValueError(f"unknown family {family!r}")
    X = _design(X).X
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n < CV_FOLDS:
        raise ValueError(f"cross-validation needs at least {CV_FOLDS} rows, one per fold; "
                         f"got {n}")
    if w is None:
        w = np.ones(n)
    w = np.asarray(w, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    if family == "linear":
        top = lambda_max_wls(X, y, w, loadings)
    else:
        top = _lambda_max_logistic(X, y, loadings)
    if top <= 0:
        return 0.0
    grid = np.geomspace(top, top * CV_MIN_RATIO, CV_GRID)
    q = float(grid[1] / grid[0])  # (lam[k+1] - lam[k]) / (lam[k] - lam[k-1])

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    perm = rng.permutation(n)
    folds = np.array_split(perm, CV_FOLDS)
    losses = np.zeros((CV_FOLDS, grid.size))
    capped = 0
    for fi, test_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        Xtr, Xte = X[mask], X[test_idx]
        # A constant column's "mean" is its value, so it centers to 0.0.
        mu = np.where(np.all(Xtr == Xtr[0], axis=0), Xtr[0], Xtr.mean(axis=0))
        train = _Design(Xtr - mu)
        Xte = Xte - mu
        ytr, wtr = y[mask], w[mask]
        yte, wte = y[test_idx], w[test_idx]
        init = prev = None
        for gi, lam in enumerate(grid):
            if family == "linear":
                fit = lasso_wls(train, ytr, wtr, float(lam), loadings, init=init,
                                unpenalized=unpenalized)
                resid = yte - fit.intercept - Xte @ fit.coef
                losses[fi, gi] = float(np.mean((wte * resid) ** 2))
            else:
                fit = lasso_logistic(train, ytr, float(lam), loadings, init=init,
                                     unpenalized=unpenalized)
                eta = fit.intercept + Xte @ fit.coef
                losses[fi, gi] = float(np.mean(np.logaddexp(0.0, eta) - yte * eta))
            capped += not fit.converged
            if prev is None:
                init = (fit.intercept, fit.coef)
            else:
                init = (fit.intercept + q * (fit.intercept - prev.intercept),
                        np.where(fit.coef != 0.0, fit.coef + q * (fit.coef - prev.coef), 0.0))
            prev = fit
    mean_loss = losses.mean(axis=0)
    low = float(mean_loss.min())
    # grid descends, so the first qualifying entry is the largest level
    best = int(np.flatnonzero(mean_loss <= low + 1e-9 * (1.0 + abs(low)))[0])
    if capped and notes is not None:
        notes.append(f"cross-validated penalty level {grid[best]:.6g}: {capped} of "
                     f"{losses.size} fold solves stopped at a solver cap before converging")
    return float(grid[best])


@dataclass(frozen=True)
class RefitResult:
    """Unpenalized refit restricted to {intercept} | support | kept columns.

    `coef` is full length with exact zeros off the refit columns. `cov` is
    the classical covariance of [intercept, columns in `cols` order];
    `cov_sandwich` its heteroskedasticity-robust counterpart (logistic only).
    """

    intercept: float
    coef: np.ndarray
    cols: tuple[int, ...]
    objective: float
    cov: np.ndarray | None = None
    cov_sandwich: np.ndarray | None = None
    warnings: tuple[str, ...] = ()


def _logit_mle(Z, y, *, names=None, tol: float = 1e-10, max_iter: int = 100):
    """Newton-Raphson logistic MLE with step halving; raises on a deficient Hessian."""
    n, k = Z.shape
    coef = np.zeros(k)
    eta = Z @ coef
    notes: list[str] = []

    def total_loss(e):
        return float(np.sum(np.logaddexp(0.0, e) - y * e))

    f0 = total_loss(eta)
    H = None
    for _ in range(max_iter):
        prob = _prob(eta)
        om = prob * (1.0 - prob)
        score = Z.T @ (y - prob)
        H = Z.T @ (Z * om[:, None])
        step = solve_spd(H, score, names=names)
        t = 1.0
        while True:
            new_coef = coef + t * step
            new_eta = Z @ new_coef
            f1 = total_loss(new_eta)
            if f1 <= f0 + 1e-12 * (1.0 + abs(f0)) or t < 1e-10:
                break
            t *= 0.5
        moved = t * float(np.max(np.abs(step))) if k else 0.0
        coef, eta, f0 = new_coef, new_eta, f1
        if moved < tol:
            break
    else:
        notes.append("logistic refit reached its iteration cap before converging")
    if float(np.max(np.abs(eta))) > 30.0:
        notes.append("possible separation in the logistic refit: |eta| exceeded 30")
    prob = _prob(eta)
    om = prob * (1.0 - prob)
    H = Z.T @ (Z * om[:, None])
    eye = np.eye(k)
    Hinv = solve_spd(H, eye, names=names)
    B = Z.T @ (Z * ((y - prob) ** 2)[:, None])
    cov_sand = Hinv @ B @ Hinv
    return coef, Hinv, cov_sand, float(f0 / n), tuple(notes)


def post_refit(X, y, support, family: str, *, w=None, keep=(),
               names=None) -> RefitResult:
    """Unpenalized refit on the column indices `support`.

    `keep` columns are always included. family is "logistic"
    (MLE by Newton-Raphson) or "linear" (weighted least squares; `w` are
    plain row weights multiplying squared residuals). Rank deficiency among
    the refit columns raises RankDeficiencyError naming them.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if family not in ("logistic", "linear"):
        raise ValueError(f"unknown family {family!r}")
    cols = sorted({int(j) for j in (*support, *keep)})
    for j in cols:
        if not 0 <= j < p:
            raise ValueError(f"refit column {j} out of range")
    k = len(cols) + 1
    if n < k:
        raise ValueError(f"refit needs at least {k} rows, have {n}")
    sub_names = ["(intercept)"] + [names[j] if names is not None else str(j) for j in cols]
    Z = np.column_stack([np.ones(n), X[:, cols]])

    if family == "logistic":
        uniq = np.unique(y)
        if not np.isin(uniq, (0.0, 1.0)).all():
            raise ValueError("outcome must be binary 0/1 for a logistic refit")
        sol, cov, cov_sand, loss, notes = _logit_mle(Z, y, names=sub_names)
    else:
        ww = np.ones(n) if w is None else np.asarray(w, dtype=float)
        # Looked up at call time, so a wrapper installed on glm.wls_fit
        # (the benchmark's trace) sees this refit.
        from .glm import wls_fit
        sol = wls_fit(Z, y, ww, names=sub_names)
        resid = y - Z @ sol
        loss = float(np.mean(ww * resid * resid))
        cov = cov_sand = None
        notes = ()

    coef = np.zeros(p)
    coef[cols] = sol[1:]
    return RefitResult(
        intercept=float(sol[0]),
        coef=coef,
        cols=tuple(cols),
        objective=loss,
        cov=cov,
        cov_sandwich=cov_sand,
        warnings=tuple(notes),
    )
