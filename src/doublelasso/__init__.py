"""Post-selection inference for treatment effects with many controls.

The package turns raw survey-style tables into numeric design matrices,
fits penalized logistic or linear models by coordinate descent, and reports
treatment coefficients whose confidence intervals stay valid after model
selection, via orthogonalized scoring (binary outcomes) or double selection
(continuous outcomes). A Monte Carlo laboratory with known-truth generators
measures bias, coverage, and size, and a CLI exposes the encode / fit /
simulate workflows.

Public names load on first use: `import doublelasso` imports no submodule
(and so no numpy), and `doublelasso.dml_logit` imports `doublelasso.dml`
the first time it is read. This lets the command-line entry point set the
BLAS thread count before numpy starts.

The exports are what the README's examples, the benchmark's workloads and
the golden and acceptance tests use, plus the result, settings and error
types. Every other name is reached through its module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("DmlConfig", "PenaltyConfig"),
    "dml": (
        "DmlEstimate", "FitFailure", "dml_linear", "dml_logit", "dml_multi", "naive_linear",
        "naive_logit",
    ),
    "encoding": (
        "encode", "encoding_spec_from_yaml", "encoding_spec_to_yaml", "load_table",
        "save_dataset", "synthetic_survey_schema", "synthetic_survey_table",
    ),
    "errors": (
        "DegenerateMomentError", "DegenerateOutcomeError", "DegenerateTreatmentError",
        "DoubleLassoError", "EmptyDatasetError", "EncodingError", "ParseError",
        "RankDeficiencyError", "SchemaError", "WeakInstrumentError",
    ),
    "lasso": ("lambda_max_wls", "lasso_logistic", "lasso_wls", "plugin_lambda"),
    "report": ("render_coverage_reports", "render_fit_results"),
    "simulate": (
        "DgpSpec", "StudySpec", "confounded_benchmark", "gen_dgp", "null_logistic_benchmark",
        "run_study", "sparse_linear_benchmark", "sparse_logistic_benchmark",
        "study_spec_to_yaml",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
