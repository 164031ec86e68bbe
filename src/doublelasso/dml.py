"""Treatment-effect inference that is robust to imperfect model selection.

Two estimators share this module. `dml_logit` runs the three-step
instrumental scoring procedure for a binary outcome: a penalized logistic
fit of the outcome on treatment and controls (then refit) fixes the nuisance
index and produces observation weights; a penalized weighted regression of
the treatment on the controls (then refit) turns the treatment residual into
an orthogonalized instrument; the final step minimizes a self-normalized
score statistic in the treatment coefficient alone over a shrinking interval
around the first-step value. `dml_linear` is the double-selection analogue
for a continuous outcome: two penalized selections (outcome side and
treatment side), one unpenalized refit on the union, heteroskedasticity
robust standard errors.

`naive_logit` / `naive_linear` are the single-selection comparators (one
penalized selection with the treatment kept unpenalized, then a plain
refit). They are included to quantify what the orthogonalized procedures
buy; their confidence intervals are not selection-robust.

`dml_multi` fits each treatment column of a dataset in turn, moving the
remaining treatments into the control pool, optionally across worker
processes.
Results are deterministic for a fixed seed regardless of the worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import GRID_POINTS, DmlConfig, PenaltyConfig, lasso_solves
from .encoding import _ArrayRecord
from .errors import (
    DegenerateMomentError,
    DegenerateOutcomeError,
    DegenerateTreatmentError,
    DoubleLassoError,
    WeakInstrumentError,
)
from .glm import binary_outcome, link, link_deriv, ndtr, ndtri, solve_spd
from .lasso import (
    _Design,
    cv_lambda,
    lasso_logistic,
    lasso_wls,
    logistic_lasso_loadings,
    plugin_lambda,
    post_refit,
    wls_lasso_loadings,
)
from .parallel import parallel_map

# Width of the bracket at which the step-3 golden-section search stops.
_REFINE_TOL = 1e-10
# Factor on the step-3 search radius max(1/log n, 10 * pilot standard error).
_SEARCH_WIDTH = 1.0


@dataclass(eq=False, frozen=True)
class NuisanceArtifacts(_ArrayRecord):
    """Per-observation intermediates of the three-step logit procedure.

    Invariants: sigma2_hat lies in (0, 0.25] elementwise and
    f_hat = w_hat / sqrt(sigma2_hat).
    """

    _ARRAYS = ("eta_tilde", "w_hat", "sigma2_hat", "f_hat", "v_hat", "z_hat", "beta_tilde",
               "theta_tilde")

    eta_tilde: np.ndarray
    w_hat: np.ndarray
    sigma2_hat: np.ndarray
    f_hat: np.ndarray
    v_hat: np.ndarray
    z_hat: np.ndarray
    alpha_tilde: float
    intercept_tilde: float
    beta_tilde: np.ndarray
    theta_tilde: np.ndarray
    theta_intercept: float

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.sigma2_hat <= 0.0) or np.any(self.sigma2_hat > 0.25):
            raise ValueError("sigma2_hat must lie in (0, 0.25]")
        if not np.allclose(self.f_hat * np.sqrt(self.sigma2_hat), self.w_hat,
                           rtol=1e-9, atol=1e-300):
            raise ValueError("f_hat must equal w_hat / sqrt(sigma2_hat)")


@dataclass(eq=False, frozen=True)
class DmlEstimate:
    """One treatment coefficient with its inference and audit trail."""

    treatment: str
    family: str
    method: str
    n: int
    alpha: float
    std_error: float
    ci_low: float
    ci_high: float
    p_value: float
    level: float
    step1_support: tuple[str, ...]
    step2_support: tuple[str, ...]
    warnings: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    artifacts: NuisanceArtifacts | None = None


@dataclass(frozen=True)
class FitFailure:
    """Recorded in place of an estimate when one treatment's fit errors out."""

    treatment: str
    error: str
    message: str


# Grid points per array pass of the step-3 search: at n=2000 each
# temporary of a block is 32 x 2000 doubles, 0.5 MiB. On a 2-core Xeon a
# 401-point grid there took 5.4 ms against 6.2 ms with 64-point blocks, and
# 1.2-1.5 ms against 1.1-1.3 ms at n=400-500.
_SCORE_BLOCK = 32


def _score_grid(alphas: np.ndarray, y, d, eta_tilde, z) -> np.ndarray:
    """iv_logit_objective at every entry of `alphas`, _SCORE_BLOCK at a time,
    so each temporary holds _SCORE_BLOCK rows of n doubles.

    Row k of a block repeats the one-point arithmetic elementwise, and each
    row's means are taken along its own contiguous row, so every value
    equals the one-point value to the bit. On rows where d == 0 (also
    -0.0) the index alpha * d + eta_tilde is eta_tilde for every alpha, so
    a grid computes (y - G) z there once and the link only on the other
    rows.
    """
    out = np.empty(alphas.size)
    fixed = None
    if alphas.size > 1 and not d.all():
        fixed = (y - link(eta_tilde)) * z  # used only on the rows where d == 0
        moving = np.flatnonzero(d)
        y, d, eta_tilde, z = y[moving], d[moving], eta_tilde[moving], z[moving]
    for i in range(0, alphas.size, _SCORE_BLOCK):
        block = alphas[i:i + _SCORE_BLOCK]
        rz = (y - link(block[:, None] * d + eta_tilde)) * z
        if fixed is not None:
            full = np.empty((block.size, fixed.size))
            full[:] = fixed
            full[:, moving] = rz
            rz = full
        num = np.mean(rz, axis=1)
        den = np.mean(rz * rz, axis=1)
        if not np.all(den > 1e-300):
            raise DegenerateMomentError(
                "denominator moment mean[(y - G)^2 z^2] is numerically zero"
            )
        out[i:i + block.size] = num * num / den
    return out


def iv_logit_objective(alpha: float, y, d, eta_tilde, z) -> float:
    """Self-normalized squared score |mean[(y - G)z]|^2 / mean[(y - G)^2 z^2].

    Nonnegative; zero exactly when the numerator moment vanishes. Invariant
    under rescaling z by any nonzero constant. Raises when the denominator
    moment is numerically zero. The one-point case of the step-3 grid.
    """
    return float(_score_grid(np.array([float(alpha)]), y, d, eta_tilde, z)[0])


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _fit_inputs(y, d, X, names, family: str):
    """Checked (y, d, design of Z = [d | X], control names) for one fit.

    Column 0 of Z is the treatment and columns 1.. are the controls, in the
    order given.
    """
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or d.shape != y.shape:
        raise ValueError("y and d must be equal-length vectors")
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be a matrix with one row per observation")
    D = np.empty((y.size, X.shape[1] + 1), order="F")
    D[:, 0] = d
    D[:, 1:] = X
    return _checked_inputs(y, D, 0, names, family)


def _checked_inputs(y, D, ti, names, family: str):
    """_fit_inputs for column ti of the column-major D as the treatment and
    D's other columns, in their order, as the controls.

    The design's X is Z = [d | X] in C order, which keeps every product with
    it on the BLAS kernel that the plain C-ordered controls would take. Z is
    stacked by three slice copies: a gather (np.take) from the column-major
    D is ~4x slower. The solvers read their columns from D itself.
    """
    Z = np.empty(D.shape)
    Z[:, 0] = D[:, ti]
    Z[:, 1:ti + 1] = D[:, :ti]
    Z[:, ti + 1:] = D[:, ti + 1:]
    columns = list(D.T)
    design = _Design(Z, [columns[ti], *columns[:ti], *columns[ti + 1:]])
    y = np.ascontiguousarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("no observations to fit")
    if not (np.all(np.isfinite(y)) and design.finite):
        raise ValueError("inputs must be finite")
    d = np.ascontiguousarray(Z[:, 0])
    if np.all(d == d[0]):
        raise DegenerateTreatmentError("treatment column is constant")
    if np.all(y == y[0]):
        raise DegenerateOutcomeError("outcome column is constant")
    _check_outcome_family(y, family)
    p = Z.shape[1] - 1
    if names is None:
        return y, d, design, tuple(f"x{j}" for j in range(p))
    names = tuple(str(s) for s in names)
    if len(names) != p:
        raise ValueError("names must match the number of control columns")
    return y, d, design, names


def _check_outcome_family(y, family: str) -> None:
    if family == "logit" and not binary_outcome(y):
        raise ValueError("outcome must be binary 0/1 for the logit family")


def _estimate(cfg: DmlConfig, treatment, family, method, n, alpha, se, support1,
              support2, notes, diagnostics, artifacts=None) -> DmlEstimate:
    """Normal-theory interval and p-value for (alpha, se), as a DmlEstimate."""
    q = float(ndtri(1.0 - cfg.level / 2.0))
    ci_low = alpha - q * se
    ci_high = alpha + q * se
    if se > 0:
        p_value = 2.0 * float(ndtr(-abs(alpha) / se))
    else:
        p_value = 1.0 if alpha == 0 else 0.0
    diagnostics["ci_width_err"] = abs((ci_high - ci_low) - 2.0 * q * se)
    return DmlEstimate(
        treatment=treatment, family=family, method=method, n=n, alpha=alpha,
        std_error=se, ci_low=ci_low, ci_high=ci_high, p_value=p_value,
        level=cfg.level, step1_support=support1, step2_support=support2,
        warnings=tuple(dict.fromkeys(notes)), diagnostics=diagnostics,
        artifacts=artifacts,
    )


def _select(design, y, family, w, penalty, unpen, seed):
    """One penalized selection: loadings, penalty level, lasso fit.

    The plug-in level counts the design's penalized columns. `design` is
    the step's _Design, shared by every solve below and dropped by the
    caller when the step is done. Returns (penalty level, LassoFit); the
    fit's warnings start with cross-validation's, if it left any.
    """
    n, p = design.X.shape
    lam = plugin_lambda(n, max(p - len(unpen), 1))
    if family == "logistic":
        loadings = logistic_lasso_loadings(design, y, lam, unpenalized=unpen)
    else:
        loadings = wls_lasso_loadings(design, y, w, lam, unpenalized=unpen)
    notes: list[str] = []
    if penalty.method == "cv":
        lam = cv_lambda(design, y, family, w=w, loadings=loadings, unpenalized=unpen,
                        seed=seed, notes=notes)
    if family == "logistic":
        fit = lasso_logistic(design, y, lam, loadings, unpenalized=unpen)
    else:
        fit = lasso_wls(design, y, w, lam, loadings, unpenalized=unpen)
    if notes:
        fit = replace(fit, warnings=(*notes, *fit.warnings))
    return lam, fit


def _logit_outcome_step(y, design, names, treatment, cfg, notes):
    """Penalized logistic fit of y on Z = [d | X] with d unpenalized, then refit.

    Returns (penalty level, selected control names, RefitResult); the refit
    keeps d in column 0.
    """
    lam, fit = _select(design, y, "logistic", None, cfg.penalty, (0,), cfg.seed)
    notes.extend(fit.warnings)
    refit = post_refit(design.X, y, fit.support, "logistic", keep=(0,),
                       names=(treatment,) + names)
    notes.extend(refit.warnings)
    return lam, tuple(names[j - 1] for j in fit.support), refit


def dml_logit(y, d, X, *, names=None, treatment: str = "d",
              config: DmlConfig | None = None) -> DmlEstimate:
    """Three-step instrumental scoring for one binary-outcome treatment effect.

    Step 1 fits a penalized logistic regression of y on (d, X) and refits the
    selected columns without penalty, fixing the index eta_i and the weights
    w_i = G'(.), sigma2_i = G(.)(1 - G(.)), f_i = w_i / sqrt(sigma2_i).
    Step 2 fits a penalized weighted regression of d on X with weights f_i,
    refits, and forms the instrument from the weighted residual
    v_i = f_i (d_i - c - x_i.theta). Step 3 minimizes the self-normalized
    score over an interval centered at the step-1 coefficient and reads the
    standard error off the sandwich of the scoring moment.
    """
    return _dml_logit(*_fit_inputs(y, d, X, names, "logit"), treatment, config)


def _dml_logit(y, d, design, names, treatment, config):
    cfg = config or DmlConfig()
    n = y.size
    notes: list[str] = []

    # Step 1: outcome-side selection and refit.
    lam1, step1_support, refit1 = _logit_outcome_step(y, design, names, treatment, cfg, notes)
    controls = design.tail()
    X = controls.X
    alpha_tilde = float(refit1.coef[0])
    beta_tilde = refit1.coef[1:]
    eta_tilde = refit1.intercept + X @ beta_tilde

    m = alpha_tilde * d + eta_tilde
    g1 = link(m)
    w_hat = link_deriv(m)
    sigma2 = g1 * (1.0 - g1)
    sigma = np.sqrt(sigma2)
    f_hat = w_hat / sigma

    # Pilot standard error for the search radius, from the refit sandwich.
    # Column 0 of Z is always first among the refit columns, so the
    # treatment sits right after the intercept in the covariance.
    se0 = float(np.sqrt(max(refit1.cov_sandwich[1, 1], 0.0)))

    # Step 2: treatment-side selection with weights f_hat.
    lam2, fit2 = _select(controls, d, "linear", f_hat, cfg.penalty, (), cfg.seed)
    notes.extend(fit2.warnings)
    refit2 = post_refit(X, d, fit2.support, "linear", w=f_hat * f_hat, names=names)
    theta_tilde = refit2.coef
    resid2 = d - refit2.intercept - X @ theta_tilde
    v_hat = f_hat * resid2

    ref_scale = float(np.mean((f_hat * d) ** 2))
    if float(np.mean(v_hat * v_hat)) <= 1e-10 * max(ref_scale, 1e-300):
        z_dbg = v_hat / np.sqrt(sigma)
        raise WeakInstrumentError(float(np.mean(z_dbg * z_dbg)))

    if cfg.instrument_scaling == "sqrt-sigma":
        z_hat = v_hat / np.sqrt(sigma)
    else:
        z_hat = v_hat / sigma

    # Step 3: score minimization over a shrinking interval around alpha_tilde.
    radius = _SEARCH_WIDTH * max(1.0 / math.log(n) if n > 1 else 1.0, 10.0 * se0)
    lo, hi = alpha_tilde - radius, alpha_tilde + radius

    def score(a: float) -> float:
        return iv_logit_objective(a, y, d, eta_tilde, z_hat)

    grid = np.linspace(lo, hi, GRID_POINTS)
    values = _score_grid(grid, y, d, eta_tilde, z_hat)
    i_best = int(np.argmin(values))
    boundary_hit = i_best in (0, GRID_POINTS - 1)
    if boundary_hit:
        notes.append(
            "score minimizer sits on the search boundary; the interval may be misplaced"
        )
    bl = grid[max(i_best - 1, 0)]
    bh = grid[min(i_best + 1, GRID_POINTS - 1)]
    refined = _golden_min(score, bl, bh, _REFINE_TOL)
    candidates = [(float(values[i_best]), float(grid[i_best])), (score(refined), float(refined))]
    obj_check, alpha_check = min(candidates)
    grid_gap = obj_check - float(values.min())

    g3 = link(alpha_check * d + eta_tilde)
    resid3 = y - g3
    den = float(np.mean((resid3 * z_hat) ** 2))
    jac = float(np.mean(link_deriv(alpha_check * d + eta_tilde) * d * z_hat))
    if not den > 1e-300 or jac == 0.0:
        raise DegenerateMomentError(
            "variance moments of the scoring step are numerically degenerate"
        )
    sigma_n = math.sqrt(den) / abs(jac)
    se = sigma_n / math.sqrt(n)

    artifacts = NuisanceArtifacts(
        eta_tilde=eta_tilde, w_hat=w_hat, sigma2_hat=sigma2, f_hat=f_hat,
        v_hat=v_hat, z_hat=z_hat, alpha_tilde=alpha_tilde,
        intercept_tilde=float(refit1.intercept), beta_tilde=beta_tilde,
        theta_tilde=theta_tilde, theta_intercept=float(refit2.intercept),
    )
    orth_max = 0.0
    for j in refit2.cols:
        xj = X[:, j]
        denom = math.sqrt(float(np.mean(v_hat * v_hat)) * float(np.mean((f_hat * xj) ** 2)))
        if denom > 0:
            orth_max = max(orth_max, abs(float(np.mean(v_hat * f_hat * xj))) / denom)
    diagnostics = {
        "lambda_step1": float(lam1),
        "lambda_step2": float(lam2),
        "search_lo": float(lo),
        "search_hi": float(hi),
        "search_radius": float(radius),
        "se_pilot": se0,
        "alpha_tilde": alpha_tilde,
        "objective_value": float(obj_check),
        "grid_gap": float(grid_gap),
        "boundary_hit": bool(boundary_hit),
        "weight_identity_err": float(np.max(np.abs(f_hat * f_hat * sigma2 - w_hat * w_hat))),
        "step2_orth_max": float(orth_max),
        "mean_z2": float(np.mean(z_hat * z_hat)),
        "w_hat_min": float(w_hat.min()),
        "w_hat_max": float(w_hat.max()),
        "w_hat_mean": float(w_hat.mean()),
    }
    return _estimate(cfg, treatment, "logit", "dml", n, float(alpha_check), se,
                     step1_support, tuple(names[j] for j in fit2.support), notes,
                     diagnostics, artifacts)


def _ols_hc1(y, d, X, cols, names, treatment):
    """Least squares of y on (1, d, X[:, cols]); returns d's (coef, HC1 se)."""
    n = y.size
    ones = np.ones(n)
    Z = np.column_stack([ones, d, X[:, cols]]) if cols else np.column_stack([ones, d])
    sub_names = ["(intercept)", treatment] + [names[j] for j in cols]
    G = Z.T @ Z
    coef = solve_spd(G, Z.T @ y, names=sub_names)
    resid = y - Z @ coef
    k = Z.shape[1]
    ginv = solve_spd(G, np.eye(k))
    meat = (Z * (resid * resid)[:, None]).T @ Z
    scale = n / (n - k) if n > k else 1.0
    cov = ginv @ meat @ ginv * scale
    return float(coef[1]), float(np.sqrt(max(cov[1, 1], 0.0)))


def dml_linear(y, d, X, *, names=None, treatment: str = "d",
               config: DmlConfig | None = None) -> DmlEstimate:
    """Double selection for a continuous outcome.

    One penalized regression of y on X and one of d on X pick the controls;
    the treatment coefficient comes from an unpenalized regression of y on
    the treatment plus the union of both supports, with HC1 sandwich
    standard errors.
    """
    return _dml_linear(*_fit_inputs(y, d, X, names, "linear"), treatment, config)


def _dml_linear(y, d, design, names, treatment, config):
    cfg = config or DmlConfig()
    ones = np.ones(y.size)
    notes: list[str] = []

    # Both selections regress on the same controls, so they share one design.
    controls = design.tail()
    lam_y, fit_y = _select(controls, y, "linear", ones, cfg.penalty, (), cfg.seed)
    notes.extend(fit_y.warnings)
    lam_d, fit_d = _select(controls, d, "linear", ones, cfg.penalty, (), cfg.seed)
    notes.extend(fit_d.warnings)

    union = sorted(set(fit_y.support) | set(fit_d.support))
    alpha, se = _ols_hc1(y, d, controls.X, union, names, treatment)
    diagnostics = {
        "lambda_outcome": float(lam_y),
        "lambda_treatment": float(lam_d),
        "union_size": len(union),
    }
    return _estimate(cfg, treatment, "linear", "dml", y.size, alpha, se,
                     tuple(names[j] for j in fit_y.support),
                     tuple(names[j] for j in fit_d.support), notes, diagnostics)


def naive_logit(y, d, X, *, names=None, treatment: str = "d",
                config: DmlConfig | None = None) -> DmlEstimate:
    """Single selection then an unpenalized logistic refit.

    The treatment stays unpenalized so it is always retained, but controls
    are chosen by one outcome regression only, and the reported standard
    error is the conventional observed-information one. Kept as the
    benchmark that the orthogonalized procedure is measured against.
    """
    return _naive_logit(*_fit_inputs(y, d, X, names, "logit"), treatment, config)


def _naive_logit(y, d, design, names, treatment, config):
    cfg = config or DmlConfig()
    notes: list[str] = []
    lam, support, refit = _logit_outcome_step(y, design, names, treatment, cfg, notes)
    se = float(np.sqrt(max(refit.cov[1, 1], 0.0)))
    return _estimate(cfg, treatment, "logit", "naive", y.size, float(refit.coef[0]), se,
                     support, (), notes, {"lambda": float(lam)})


def naive_linear(y, d, X, *, names=None, treatment: str = "d",
                 config: DmlConfig | None = None) -> DmlEstimate:
    """Single selection then ordinary least squares with HC1 errors."""
    return _naive_linear(*_fit_inputs(y, d, X, names, "linear"), treatment, config)


def _naive_linear(y, d, design, names, treatment, config):
    cfg = config or DmlConfig()
    lam, fit = _select(design, y, "linear", np.ones(y.size), cfg.penalty, (0,), cfg.seed)
    cols = [j - 1 for j in fit.support]
    alpha, se = _ols_hc1(y, d, design.X[:, 1:], cols, names, treatment)
    return _estimate(cfg, treatment, "linear", "naive", y.size, alpha, se,
                     tuple(names[j] for j in cols), (), list(fit.warnings),
                     {"lambda": float(lam)})


# Each takes (y, d, design of [d | X], names, treatment, config) from
# _checked_inputs.
_FITTERS = {
    ("logit", "dml"): _dml_logit,
    ("logit", "naive"): _naive_logit,
    ("linear", "dml"): _dml_linear,
    ("linear", "naive"): _naive_linear,
}


# What an estimator raises when the data defeat it. Anything else is a bug
# and propagates instead of becoming a FitFailure row.
_ESTIMATION_ERRORS = (DoubleLassoError, ValueError, np.linalg.LinAlgError)


def _fit_treatment(dataset, family, fitter, config, fail_fast, ti: int):
    """One dml_multi row: design column ti as the treatment."""
    names = dataset.column_names
    t = names[ti]
    try:
        return fitter(*_checked_inputs(dataset.y, dataset.design, ti,
                                       names[:ti] + names[ti + 1:], family), t, config)
    except _ESTIMATION_ERRORS as exc:
        if fail_fast:
            raise
        return FitFailure(treatment=t, error=type(exc).__name__, message=str(exc))


def dml_multi(dataset, *, family: str = "logit", method: str = "dml",
              config: DmlConfig | None = None, fail_fast: bool = False, jobs: int = 1):
    """Fit every treatment column of a Dataset, one coefficient per row.

    The dataset's column roles decide what is fitted: each column with role
    "treatment" is fitted in design order, with every other column, the
    remaining treatments included, as its controls. To fit a subset,
    declare the roles in the encoding spec or re-role the columns (the CLI's
    --treatments/--controls do that). Estimation failures (typed errors,
    invalid values, singular linear algebra) become FitFailure records
    unless fail_fast is set; any other exception propagates. A dataset with
    no treatment column, or a logit outcome that is not binary 0/1, raises
    ValueError before any fit. jobs > 1 fans the per-treatment fits out to
    this process and jobs - 1 workers when the job is large enough (see
    parallel.parallel_map); the result order and values do not depend on
    jobs.
    """
    fitter = _FITTERS.get((family, method))
    if fitter is None:
        raise ValueError(f"unknown family/method pair ({family!r}, {method!r})")
    wanted = [i for i, c in enumerate(dataset.columns) if c.role == "treatment"]
    if not wanted:
        raise ValueError("no treatment columns to fit")
    _check_outcome_family(dataset.y, family)
    solves = lasso_solves((config or DmlConfig()).penalty)
    fit = functools.partial(_fit_treatment, dataset, family, fitter, config, fail_fast)
    return tuple(parallel_map(fit, wanted, jobs, cells_per_item=dataset.n * dataset.p * solves))
