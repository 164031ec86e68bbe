"""Estimator and penalty settings and the process pool's size cutoff.

This module imports no numpy, so the CLI's parser, `--version` and `encode`
read it without loading the fitting stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

_SCALINGS = ("sqrt-sigma", "sigma")

# Jobs smaller than this many design cells (items x rows x design columns,
# times the lasso solves per selection step, dml.lasso_solves) run serially.
# Measured on a 2-core host: a forked worker boots in 10-25 ms of wall time
# and 4-8 ms of CPU, so the boot does not set the break-even. What does is
# that each of two processes fitting side by side fits slower. At a 250k
# cutoff the four benchmark regimes' 20-replication studies (0.5-4M cells,
# well under 1 s of fitting each) kept their bytes, but a fresh CLI call
# took -16% to +50% wall time (median +3%) and 5-32% more CPU (median +16%)
# over 4 rounds, so they stay serial. Above the cutoff the pool pays: the
# README's 200-replication logistic study (8.2M cells) takes 2.9-3.6 s of
# wall time and 5.1-5.4 s of CPU at two jobs against 3.9-5.1 s and 4.1-5.3 s
# at one, and the 26-treatment survey fit (17M cells) 2.6-3.7 s (median
# 2.8 s, 4.3 s of CPU) against 3.6-4.4 s (median 4.1 s, 4.2 s of CPU).
# A plug-in logistic fit costs 0.11-0.14 us of CPU per cell at n=2000,
# p=329 and 0.22-0.25 us at n=500, p=100, linear fits 0.10-0.18 us. A CV
# fit (10 folds x 30 levels, 301 solves per step, on centered folds with
# extrapolated starts) costs 0.26-0.38 us (logistic) and 0.13-0.17 us
# (linear) per cell-solve at n=500, p=100, and 0.59-0.71 us and 0.18-0.30 us
# at n=200, p=20, over 3 seeds each with Gaussian or 0/1 controls. So a job
# at the cutoff holds about 1-2 s of single-threaded fitting under the
# plug-in rule and 1-6 s under CV, the most for small logistic designs.
SERIAL_BELOW_CELLS = 8_000_000


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.seed >= 2**64:
            raise ValueError("seed must be below 2**64")

    def fingerprint(self) -> str:
        pen = self.penalty
        if pen.method == "plugin":
            pen_txt = f"plugin(c={pen.c:g})"
        else:
            pen_txt = f"cv(folds={pen.cv_folds})"
        return (
            f"instrument={self.instrument_scaling};penalty={pen_txt};"
            f"grid={self.grid_points};level={self.level:g}"
        )
