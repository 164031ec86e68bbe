"""Synthetic data with known truth, and Monte Carlo calibration studies.

A DgpSpec describes a linear or logistic outcome equation
y = intercept + alpha0 * d + x.beta (+ noise) together with the auxiliary
treatment equation d = x.gamma + nu * noise. gen_dgp materializes it into a
Dataset plus a TruthRecord, reproducibly from a seed via a counter-based
generator, so replications do not depend on platform or thread timing.

A StudySpec bundles a DGP with a replication count, method labels, and a
base seed. run_replications executes paired replications (replication r of
every method sees the identical dataset drawn from base_seed + r) and
summarize reduces them to one CoverageReport per method: bias, empirical
spread, average reported standard error, CI coverage of alpha0, and the
rejection rate at the study's significance level. Failed replications are
recorded with their reasons, never silently dropped; coverage is computed
over successes with the denominator reported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
import yaml

from .config import lasso_solves
from .dml import _FITTERS, DmlConfig, DmlEstimate, FitFailure, dml_multi
from .encoding import (SPEC_VERSION, ColumnInfo, Dataset, _ArrayRecord, _build, _float, _int,
                       _list, _mapping, _philox, _plain, _read, _text, _yaml_mapping)
from .errors import SchemaError
from .glm import link
from .parallel import parallel_map

_FAMILIES = ("logistic", "linear")
_CORRS = ("independent", "exchangeable", "ar1")
_METHODS = tuple(dict.fromkeys(method for _, method in _FITTERS))


# The study-spec format, stated once: each YAML key and the converter that
# reads it. A key left out takes the StudySpec or DgpSpec default. `beta` and
# `gamma` each hold a mapping with a `pattern` key and that pattern's keys,
# which fill the DgpSpec fields <beta|gamma>_<key> (`values` fills
# <beta|gamma>_custom).
_STUDY_KEYS = {"reps": _int, "methods": _list(_text), "level": _float, "base_seed": _int,
               "max_failure_rate": _float, "dgp": _mapping}
_DGP_KEYS = {"family": _text, "n": _int, "p": _int, "alpha0": _float, "beta": _mapping,
             "gamma": _mapping, "nu": _float, "x_corr": _text, "rho": _float,
             "intercept": _float, "noise_sd": _float}
_PATTERNS = {"first-s": {"magnitude": _float, "sparsity": _int},
             "geometric": {"magnitude": _float, "decay": _float},
             "custom": {"values": _list(_float)}}


@dataclass(frozen=True)
class DgpSpec:
    """One synthetic design: outcome family, dimensions, and coefficients.

    beta_* parameterizes the outcome-side coefficient vector and gamma_* the
    treatment equation, each as one of three patterns: "first-s" (the first
    `sparsity` entries equal `magnitude`), "geometric" (magnitude * decay^j),
    or "custom" (an explicit length-p vector). nu scales the treatment noise
    and noise_sd the outcome noise (linear family only).
    """

    family: str
    n: int
    p: int
    alpha0: float
    beta_pattern: str = "first-s"
    beta_magnitude: float = 1.0
    beta_sparsity: int = 5
    beta_decay: float = 0.5
    beta_custom: tuple[float, ...] | None = None
    gamma_pattern: str = "first-s"
    gamma_magnitude: float = 0.0
    gamma_sparsity: int = 0
    gamma_decay: float = 0.5
    gamma_custom: tuple[float, ...] | None = None
    nu: float = 1.0
    x_corr: str = "independent"
    rho: float = 0.0
    intercept: float = 0.0
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}")
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        for what in ("beta", "gamma"):
            self._coefficients(what)
            custom = getattr(self, f"{what}_custom")
            if custom is not None:
                object.__setattr__(self, f"{what}_custom", tuple(float(v) for v in custom))
        if self.nu <= 0 or self.noise_sd <= 0:
            raise ValueError("noise scales must be positive")
        if self.x_corr not in _CORRS:
            raise ValueError(f"x_corr must be one of {_CORRS}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.x_corr == "exchangeable" and self.p > 1 and self.rho <= -1.0 / (self.p - 1):
            raise ValueError(
                "exchangeable correlation needs rho > -1/(p-1) to stay positive definite"
            )

    def _coefficients(self, what: str) -> np.ndarray:
        """The `what` ("beta" or "gamma") vector, built from its pattern's
        fields once they are checked."""
        pat, custom = getattr(self, f"{what}_pattern"), getattr(self, f"{what}_custom")
        if pat not in _PATTERNS:
            raise ValueError(f"{what} pattern must be one of {tuple(_PATTERNS)}")
        if pat == "custom":
            if custom is None or len(custom) != self.p:
                raise ValueError(f"{what}: custom pattern needs a length-p vector")
            return np.asarray(custom, dtype=float)
        v = np.zeros(self.p)
        if pat == "first-s":
            sparsity = getattr(self, f"{what}_sparsity")
            if not 0 <= sparsity <= self.p:
                raise ValueError(f"{what} sparsity must lie in [0, p]")
            v[:sparsity] = getattr(self, f"{what}_magnitude")
        else:
            decay = getattr(self, f"{what}_decay")
            if not 0.0 < decay < 1.0:
                raise ValueError(f"{what} decay must lie in (0, 1)")
            v[:] = getattr(self, f"{what}_magnitude") * np.power(decay, np.arange(self.p))
        return v


@dataclass(eq=False, frozen=True)
class TruthRecord(_ArrayRecord):
    """The parameters a replication was drawn from."""

    _ARRAYS = ("beta", "gamma")

    alpha0: float
    intercept: float
    beta: np.ndarray
    gamma: np.ndarray
    family: str
    nu: float
    noise_sd: float
    seed: int


def gen_dgp(spec: DgpSpec, seed: int) -> tuple[Dataset, TruthRecord]:
    """Draw one dataset from the spec; bit-reproducible from (spec, seed).

    Draw order is fixed: the n-by-p control block first, then treatment
    noise, then outcome noise (or the Bernoulli uniforms). The treatment
    column is named "d" and controls "x1".."xp".
    """
    rng = _philox(seed)
    n, p = spec.n, spec.p
    E = rng.standard_normal((n, p))
    if spec.x_corr == "independent" or spec.rho == 0.0:
        X = E
    elif spec.x_corr == "ar1":
        X = np.empty((n, p))
        X[:, 0] = E[:, 0]
        c = math.sqrt(1.0 - spec.rho * spec.rho)
        for j in range(1, p):
            X[:, j] = spec.rho * X[:, j - 1] + c * E[:, j]
    else:
        R = np.full((p, p), spec.rho)
        np.fill_diagonal(R, 1.0)
        X = E @ np.linalg.cholesky(R).T
    beta = spec._coefficients("beta")
    gamma = spec._coefficients("gamma")
    d = X @ gamma + spec.nu * rng.standard_normal(n)
    index = spec.intercept + spec.alpha0 * d + X @ beta
    if spec.family == "linear":
        y = index + spec.noise_sd * rng.standard_normal(n)
    else:
        y = (rng.random(n) < link(index)).astype(float)
    columns = [ColumnInfo(name="d", role="treatment", source="d")]
    columns += [
        ColumnInfo(name=f"x{j + 1}", role="control", source=f"x{j + 1}")
        for j in range(p)
    ]
    dataset = Dataset(y=y, design=np.vstack([d, X.T]).T,  # column-major, as Dataset keeps it
                      columns=tuple(columns), outcome_name="y")
    truth = TruthRecord(
        alpha0=spec.alpha0, intercept=spec.intercept, beta=beta, gamma=gamma,
        family=spec.family, nu=spec.nu, noise_sd=spec.noise_sd, seed=seed,
    )
    return dataset, truth


def _estimation_family(dgp_family: str) -> str:
    return "logit" if dgp_family == "logistic" else "linear"


# ---------------------------------------------------------------------------
# Studies


@dataclass(frozen=True)
class StudySpec:
    """A DGP, a replication budget, and the methods to race on it."""

    dgp: DgpSpec
    reps: int
    methods: tuple[str, ...] = ("dml",)
    level: float = 0.05
    base_seed: int = 0
    max_failure_rate: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must be distinct")
        for m in self.methods:
            if m not in _METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {_METHODS}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if self.base_seed + self.reps - 1 >= 2**64:
            # replication r draws from seed base_seed + r
            raise ValueError("base_seed + reps - 1 must be below 2**64")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must lie in [0, 1]")


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated calibration of one method over a study's replications.

    Bias statistics, coverage, width, and the rejection rate are computed
    over the successful replications only; `successes` is that denominator
    and reps = successes + failures always holds.
    """

    method: str
    reps: int
    successes: int
    failures: int
    alpha0: float
    level: float
    mean_bias: float
    median_bias: float
    sd: float
    mean_se: float
    coverage: float
    mean_ci_width: float
    rejection_rate: float
    failure_reasons: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "failure_reasons", tuple(self.failure_reasons))
        if self.reps != self.successes + self.failures:
            raise ValueError("reps must equal successes + failures")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")


def _replicate(study, family, config, r: int) -> dict:
    """Replication r of every method."""
    ds, _ = gen_dgp(study.dgp, seed=study.base_seed + r)
    return {
        m: dml_multi(ds, family=family, method=m, config=config)[0]
        for m in study.methods
    }


def run_replications(study: StudySpec, *, config: DmlConfig | None = None,
                     jobs: int = 1) -> dict[str, list]:
    """Paired replications: one dataset per rep, shared by every method.

    Returns {method: [estimate-or-failure, ...]} with lists ordered by
    replication index. The study's level overrides the config's so the
    reported intervals match the rejection rule. Replications may fan out
    to this process and `jobs` - 1 workers when the study is large enough
    (see parallel.parallel_map); results are identical for any job count.
    """
    cfg = config or DmlConfig()
    if cfg.level != study.level:
        cfg = replace(cfg, level=study.level)
    dgp = study.dgp
    replicate = functools.partial(_replicate, study, _estimation_family(dgp.family), cfg)
    rows = parallel_map(replicate, range(study.reps), jobs,
                        cells_per_item=(dgp.n * (dgp.p + 1) * len(study.methods)
                                        * lasso_solves(cfg.penalty)))
    return {m: [row[m] for row in rows] for m in study.methods}


def summarize(study: StudySpec, results: dict[str, list]) -> tuple[CoverageReport, ...]:
    """Reduce per-replication estimates to one CoverageReport per method."""
    a0 = study.dgp.alpha0
    reports = []
    for m in study.methods:
        rows = results[m]
        est = [e for e in rows if isinstance(e, DmlEstimate)]
        fails = [(i, e) for i, e in enumerate(rows) if isinstance(e, FitFailure)]
        reasons = tuple(f"rep {i}: {f.error}: {f.message}" for i, f in fails)
        if est:
            alphas = np.array([e.alpha for e in est])
            ses = np.array([e.std_error for e in est])
            lows = np.array([e.ci_low for e in est])
            highs = np.array([e.ci_high for e in est])
            pvals = np.array([e.p_value for e in est])
            bias = alphas - a0
            stats = dict(
                mean_bias=float(bias.mean()),
                median_bias=float(np.median(bias)),
                sd=float(alphas.std(ddof=1)) if alphas.size > 1 else 0.0,
                mean_se=float(ses.mean()),
                coverage=float(np.mean((lows <= a0) & (a0 <= highs))),
                mean_ci_width=float(np.mean(highs - lows)),
                rejection_rate=float(np.mean(pvals < study.level)),
            )
        else:
            stats = dict(mean_bias=0.0, median_bias=0.0, sd=0.0, mean_se=0.0,
                         coverage=0.0, mean_ci_width=0.0, rejection_rate=0.0)
        reports.append(CoverageReport(
            method=m, reps=len(rows), successes=len(est), failures=len(fails),
            alpha0=a0, level=study.level, failure_reasons=reasons, **stats,
        ))
    return tuple(reports)


def run_study(study: StudySpec, *, config: DmlConfig | None = None,
              jobs: int = 1) -> tuple[CoverageReport, ...]:
    """run_replications then summarize, one CoverageReport per method."""
    return summarize(study, run_replications(study, config=config, jobs=jobs))


# ---------------------------------------------------------------------------
# Serialization (same structured format family as the encoding spec)


def _field(what: str, key: str) -> str:
    """The DgpSpec field that key `key` of the `what` pattern mapping fills."""
    return f"{what}_{'custom' if key == 'values' else key}"


def study_spec_from_yaml(text: str) -> StudySpec:
    study = _read(_yaml_mapping(text, "study spec"), _STUDY_KEYS, "study")
    dgp = _read(study.get("dgp", {}), _DGP_KEYS, "dgp")
    for what in ("beta", "gamma"):
        if what in dgp:
            pattern = dgp.pop(what)
            name = pattern.pop("pattern", None)
            if not isinstance(name, str) or name not in _PATTERNS:
                raise SchemaError(f"{what}: pattern must be one of {tuple(_PATTERNS)}, "
                                  f"got {name!r}")
            dgp[f"{what}_pattern"] = name
            for key, value in _read(pattern, _PATTERNS[name], what).items():
                dgp[_field(what, key)] = value
    study["dgp"] = _build(DgpSpec, dgp, "dgp")
    return _build(StudySpec, study, "study spec")


def _pattern_to_mapping(d: DgpSpec, what: str) -> dict:
    name = getattr(d, f"{what}_pattern")
    return {"pattern": name,
            **{key: _plain(getattr(d, _field(what, key))) for key in _PATTERNS[name]}}


def study_spec_to_yaml(study: StudySpec) -> str:
    d = study.dgp
    dgp = {key: _pattern_to_mapping(d, key) if key in ("beta", "gamma") else getattr(d, key)
           for key in _DGP_KEYS}
    doc = {"version": SPEC_VERSION,
           **{key: dgp if key == "dgp" else _plain(getattr(study, key)) for key in _STUDY_KEYS}}
    return yaml.safe_dump(doc, sort_keys=False)


def coverage_reports_to_yaml(reports) -> str:
    doc = {
        "version": SPEC_VERSION,
        "reports": [{**asdict(r), "failure_reasons": list(r.failure_reasons)} for r in reports],
    }
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# Benchmark fixtures (artifact-defined regimes with documented free choices)


def confounded_benchmark(reps: int = 500, base_seed: int = 2020) -> StudySpec:
    """Linear DGP built to punish single selection.

    x1 drives the treatment hard (corr(x1, d) = 0.8 via gamma1 = 0.8 and
    nu = 0.6, so var(d) = 1) but nudges the outcome only weakly
    (beta1 = 0.15). Single selection tends to drop x1 because the treatment
    column absorbs it, inheriting omitted-variable bias of about
    beta1 * cov(x1, d) = 0.12; the double selection keeps x1 through the
    treatment equation.
    """
    p = 200
    beta = [0.0] * p
    beta[:5] = [0.15, 0.5, 0.25, 0.125, 0.0625]
    gamma = [0.0] * p
    gamma[0] = 0.8
    dgp = DgpSpec(
        family="linear", n=500, p=p, alpha0=0.5,
        beta_pattern="custom", beta_custom=tuple(beta),
        gamma_pattern="custom", gamma_custom=tuple(gamma),
        nu=0.6, noise_sd=1.0,
    )
    return StudySpec(dgp=dgp, reps=reps, methods=("dml", "naive"),
                     level=0.05, base_seed=base_seed)


def sparse_logistic_benchmark(reps: int = 500, base_seed: int = 2021) -> StudySpec:
    """Well-specified sparse logistic regime (n=500, p=100, s=5)."""
    dgp = DgpSpec(
        family="logistic", n=500, p=100, alpha0=0.5,
        beta_pattern="first-s", beta_magnitude=0.5, beta_sparsity=5,
        gamma_pattern="first-s", gamma_magnitude=0.3, gamma_sparsity=5,
        nu=1.0,
    )
    return StudySpec(dgp=dgp, reps=reps, methods=("dml",), level=0.05,
                     base_seed=base_seed)


def sparse_linear_benchmark(reps: int = 500, base_seed: int = 2021) -> StudySpec:
    """The sparse regime of sparse_logistic_benchmark with a linear outcome."""
    dgp = DgpSpec(
        family="linear", n=500, p=100, alpha0=0.5,
        beta_pattern="first-s", beta_magnitude=0.5, beta_sparsity=5,
        gamma_pattern="first-s", gamma_magnitude=0.3, gamma_sparsity=5,
        nu=1.0, noise_sd=1.0,
    )
    return StudySpec(dgp=dgp, reps=reps, methods=("dml",), level=0.05,
                     base_seed=base_seed)


def null_logistic_benchmark(reps: int = 500, base_seed: int = 2022) -> StudySpec:
    """alpha0 = 0 logistic regime for size calibration."""
    dgp = DgpSpec(
        family="logistic", n=400, p=60, alpha0=0.0,
        beta_pattern="first-s", beta_magnitude=0.4, beta_sparsity=4,
        gamma_pattern="first-s", gamma_magnitude=0.4, gamma_sparsity=4,
        nu=1.0,
    )
    return StudySpec(dgp=dgp, reps=reps, methods=("dml",), level=0.05,
                     base_seed=base_seed)
