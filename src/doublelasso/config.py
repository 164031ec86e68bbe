"""Estimator settings, the fixed tuning values and the process pool's size cutoff.

This module imports no numpy, so the CLI's parser, `--version` and `encode`
read it without loading the fitting stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_SCALINGS = ("sqrt-sigma", "sigma")

# Jobs smaller than this many design cells (items x rows x design columns,
# times the lasso solves per selection step, lasso_solves below) run serially.
# Measured on a 2-core host: a forked worker boots in 10-25 ms of wall time
# and 4-8 ms of CPU, so the boot does not set the break-even. What does is
# that each of two processes fitting side by side fits slower. At a 250k
# cutoff the four benchmark regimes' 20-replication studies (0.5-4M cells,
# well under 1 s of fitting each) kept their bytes, but a fresh CLI call
# took -16% to +50% wall time (median +3%) and 5-32% more CPU (median +16%)
# over 4 rounds, so they stay serial. Above the cutoff the pool pays: the
# README's 200-replication logistic study (8.2M cells) takes 1.6-1.8 s of
# wall time and 2.8-3.1 s of CPU at two jobs against 3.0-3.7 s at one, and
# the 26-treatment survey fit (17M cells) 1.0-1.2 s (1.5-1.8 s of CPU)
# against 1.3-1.7 s, in fresh CLI calls. A plug-in logistic fit costs
# 0.057-0.068 us of CPU per cell at n=2000, p=329 (the survey fit), 0.33-0.39
# us at n=500, p=100 and 0.39-0.53 us at n=500, p=40; a plug-in linear fit
# 0.026-0.029 us at n=2000, p=329 and 0.056-0.065 us at n=500, p=100. A CV
# fit (1 + CV_FOLDS x CV_GRID solves per step, on centered folds with
# extrapolated starts) costs 0.29-0.50 us (logistic) and 0.061-0.075 us
# (linear) per cell-solve at n=500, p=100, and 0.37-0.46 us and 0.11-0.14 us
# at n=200, p=20, over 3 seeds each with Gaussian controls. So a job at the
# cutoff holds about 0.2-0.5 s of single-threaded fitting under the plug-in
# rule on wide designs and linear fits, up to 3-4 s for small logistic
# designs, and 0.5-4 s under CV.
SERIAL_BELOW_CELLS = 8_000_000


def lasso_solves(penalty: PenaltyConfig) -> int:
    """Lasso solves per selection step: one, plus folds x grid under CV.

    parallel_map's size cutoff multiplies design cells by this; see the
    SERIAL_BELOW_CELLS comment for what a cell-solve costs.
    """
    if penalty.method == "plugin":
        return 1
    return 1 + CV_FOLDS * CV_GRID


# The estimator's fixed tuning. The plug-in level is
# PLUGIN_C * sqrt(n) * PhiInv(1 - gamma / (2 p)) with gamma = 0.1 / log(n).
# Cross-validation runs CV_FOLDS folds over CV_GRID levels, geometric from
# the smallest all-zero level down to CV_MIN_RATIO of it. The step-3 search
# evaluates GRID_POINTS evenly spaced points before its golden-section
# refinement.
PLUGIN_C = 1.1
CV_FOLDS = 10
CV_GRID = 30
CV_MIN_RATIO = 1e-3
GRID_POINTS = 401


@dataclass(frozen=True)
class PenaltyConfig:
    """How the penalty level is chosen: method "plugin" (the plug-in formula)
    or "cv" (K-fold cross-validation). Either way the fitters' penalty
    loadings take one refinement.
    """

    method: str = "plugin"

    def __post_init__(self):
        if self.method not in ("plugin", "cv"):
            raise ValueError(f"unknown penalty method {self.method!r}")


@dataclass(frozen=True)
class DmlConfig:
    """Estimator settings shared by the fitting entry points.

    level is the significance level (0.05 gives 95% intervals). The
    instrument scaling divides the step-2 residual by sqrt(sigma_i) by
    default; "sigma" selects the v_i/sigma_i variant. The treatment is never
    penalized. seed fixes the cross-validation folds under penalty method
    "cv".
    """

    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    level: float = 0.05
    instrument_scaling: str = "sqrt-sigma"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.instrument_scaling not in _SCALINGS:
            raise ValueError(f"instrument_scaling must be one of {_SCALINGS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.seed >= 2**64:
            raise ValueError("seed must be below 2**64")

    def fingerprint(self) -> str:
        if self.penalty.method == "plugin":
            pen_txt = f"plugin(c={PLUGIN_C:g})"
        else:
            pen_txt = f"cv(folds={CV_FOLDS})"
        return (
            f"instrument={self.instrument_scaling};penalty={pen_txt};"
            f"grid={GRID_POINTS};level={self.level:g}"
        )
