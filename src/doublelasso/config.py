"""Estimator and penalty settings; this module imports no numpy."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

_SCALINGS = ("sqrt-sigma", "sigma")


@dataclass(frozen=True)
class PenaltyConfig:
    """How the penalty level is chosen.

    method "plugin" uses c * sqrt(n) * PhiInv(1 - gamma / (2 p)); gamma=None
    means the default 0.1 / log(n). method "cv" selects the level by K-fold
    cross-validation on a geometric grid below the smallest all-zero level.
    Either way the fitters' penalty loadings take one refinement.
    """

    method: str = "plugin"
    c: float = 1.1
    gamma: float | None = None
    cv_folds: int = 10
    cv_grid: int = 30
    cv_min_ratio: float = 1e-3
    one_se: bool = False

    def __post_init__(self):
        if self.method not in ("plugin", "cv"):
            raise ValueError(f"unknown penalty method {self.method!r}")
        if not math.isfinite(self.c) or self.c < 0:
            raise ValueError("c must be a nonnegative real")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if self.cv_grid < 2 or not 0.0 < self.cv_min_ratio < 1.0:
            raise ValueError("bad cross-validation grid settings")
        if self.method == "plugin" and self.c < 1.0:
            warnings.warn(
                "plug-in penalty constant c below 1.0 voids its theoretical guarantee",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class DmlConfig:
    """Estimator settings shared by the fitting entry points.

    level is the significance level (0.05 gives 95% intervals). The
    instrument scaling divides the step-2 residual by sqrt(sigma_i) by
    default; "sigma" selects the v_i/sigma_i variant. search_width rescales
    the step-3 search interval, whose base radius is
    max(1/log n, 10 * pilot standard error); grid_points spaced evenly
    across it bracket the minimizer, which a golden-section search then
    refines to within dml._REFINE_TOL. The treatment is never penalized.
    seed fixes the cross-validation folds under penalty method "cv".
    """

    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    level: float = 0.05
    instrument_scaling: str = "sqrt-sigma"
    search_width: float = 1.0
    grid_points: int = 401
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.instrument_scaling not in _SCALINGS:
            raise ValueError(f"instrument_scaling must be one of {_SCALINGS}")
        if self.search_width <= 0:
            raise ValueError("search_width must be positive")
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")

    def fingerprint(self) -> str:
        pen = self.penalty
        if pen.method == "plugin":
            pen_txt = f"plugin(c={pen.c:g})"
        else:
            pen_txt = f"cv(folds={pen.cv_folds},one_se={str(pen.one_se).lower()})"
        return (
            f"instrument={self.instrument_scaling};penalty={pen_txt};"
            f"grid={self.grid_points};level={self.level:g}"
        )
