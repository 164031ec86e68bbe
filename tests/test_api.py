"""The public surface, and the names the benchmark reaches into.

`__all__`, the options of every public function and the fields of the
settings and study classes are pinned to explicit lists, so growing or
shrinking the public API is a deliberate edit here. The README's library examples must
keep importing. The benchmark's traced run wraps module attributes by
name and its workloads call top-level names, so those must stay too.
"""

import dataclasses
import inspect
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import doublelasso

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC = {
    "__version__",
    # the README's library examples
    "dml_multi", "encode", "encoding_spec_from_yaml", "load_table", "render_fit_results",
    "DgpSpec", "StudySpec", "run_study", "render_coverage_reports",
    # results and settings
    "DmlEstimate", "FitFailure", "DmlConfig", "PenaltyConfig",
    # errors
    "DegenerateMomentError", "DegenerateOutcomeError", "DegenerateTreatmentError",
    "DoubleLassoError", "EmptyDatasetError", "EncodingError", "ParseError",
    "RankDeficiencyError", "SchemaError", "WeakInstrumentError",
    # what the benchmark's workloads build their inputs from
    "synthetic_survey_schema", "synthetic_survey_table", "encoding_spec_to_yaml",
    "study_spec_to_yaml", "confounded_benchmark", "sparse_logistic_benchmark",
    "sparse_linear_benchmark", "null_logistic_benchmark",
    # the fitters and solver entry points the golden and acceptance tests import
    "dml_linear", "dml_logit", "naive_linear", "naive_logit",
    "gen_dgp", "lambda_max_wls", "lasso_logistic", "lasso_wls", "plugin_lambda",
    "save_dataset",
}

# The options of every public callable, and the fields of the settings and
# study classes: adding or removing one is a deliberate edit here.
SIGNATURES = {
    "dml_multi": ("dataset", "family", "method", "config", "fail_fast", "jobs"),
    "encode": ("table", "spec"),
    "encoding_spec_from_yaml": ("text",),
    "load_table": ("source", "missing_tokens"),
    "render_fit_results": ("results", "level", "fmt", "decimals"),
    "run_study": ("study", "config", "jobs"),
    "render_coverage_reports": ("reports", "fmt", "decimals"),
    "dml_linear": ("y", "d", "X", "names", "treatment", "config"),
    "dml_logit": ("y", "d", "X", "names", "treatment", "config"),
    "naive_linear": ("y", "d", "X", "names", "treatment", "config"),
    "naive_logit": ("y", "d", "X", "names", "treatment", "config"),
    "gen_dgp": ("spec", "seed"),
    "lambda_max_wls": ("X", "y", "w", "loadings"),
    "lasso_logistic": ("X", "y", "lam", "loadings", "unpenalized", "tol", "init"),
    "lasso_wls": ("X", "y", "w", "lam", "loadings", "fit_intercept", "unpenalized", "tol",
                  "init"),
    "plugin_lambda": ("n", "p"),
    "save_dataset": ("dataset", "path"),
    "synthetic_survey_schema": (),
    "synthetic_survey_table": ("n", "seed"),
    "encoding_spec_to_yaml": ("spec",),
    "study_spec_to_yaml": ("study",),
    "confounded_benchmark": ("reps", "base_seed"),
    "sparse_logistic_benchmark": ("reps", "base_seed"),
    "sparse_linear_benchmark": ("reps", "base_seed"),
    "null_logistic_benchmark": ("reps", "base_seed"),
}

FIELDS = {
    "DmlConfig": ("penalty", "level", "instrument_scaling", "seed"),
    "PenaltyConfig": ("method",),
    "DgpSpec": ("family", "n", "p", "alpha0", "beta_pattern", "beta_magnitude",
                "beta_sparsity", "beta_decay", "beta_custom", "gamma_pattern",
                "gamma_magnitude", "gamma_sparsity", "gamma_decay", "gamma_custom", "nu",
                "x_corr", "rho", "intercept", "noise_sd"),
    "StudySpec": ("dgp", "reps", "methods", "level", "base_seed", "max_failure_rate"),
}


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def test_public_names_are_exactly_the_pinned_list():
    assert len(doublelasso.__all__) == len(set(doublelasso.__all__))
    assert set(doublelasso.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(doublelasso, name), name


def test_public_options_are_exactly_the_pinned_lists():
    functions = {name for name in PUBLIC
                 if inspect.isfunction(getattr(doublelasso, name, None))}
    assert functions == set(SIGNATURES)
    for name, params in SIGNATURES.items():
        assert tuple(inspect.signature(getattr(doublelasso, name)).parameters) == params, name
    for name, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(getattr(doublelasso, name))) == names, name


def test_readme_imports_resolve_to_public_names():
    blocks = re.findall(r"^from doublelasso import (\([^)]*\)|[^\n]+)",
                        _read("README.md"), flags=re.MULTILINE)
    names = {n.strip() for b in blocks for n in b.strip("()").split(",") if n.strip()}
    assert names, "no library example found in the README"
    for name in names:
        assert name in doublelasso.__all__, name
        assert hasattr(doublelasso, name), name


def test_benchmark_trace_points_and_workload_names_exist():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    # Each wrapper is built from getattr(module, name), so a missing
    # attribute fails right here.
    tracer = tracing.Tracer()
    plan = tracing.instrumentation(tracer)
    for name in set(re.findall(r"\bdl\.([A-Za-z_]\w*)", _read("perfbench", "workloads.py"))):
        assert hasattr(doublelasso, name), name
    # The fitters look these names up at call time, so a traced fit sees
    # every layer, step 3's golden-section points included.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 4))
    d = X[:, 0] + rng.normal(size=120)
    y = (rng.random(120) < 0.5).astype(float)
    with tracing.patched(plan):
        doublelasso.dml_logit(y, d, X)
        doublelasso.dml_linear(X[:, 1] + d, d, X[:, 1:])
    seen = {span.name for span in tracer.spans}
    assert {"dml.score", "lasso.loadings", "lasso.logistic", "lasso.wls",
            "lasso.post_refit", "glm.solve_spd"} <= seen
    assert tracing.summarize_spans(tracer.spans)["dml.score"]["n"] > 2


def test_package_root_imports_no_numpy_and_sets_no_environment():
    # Names load on first use, so the CLI entry point can set the BLAS
    # thread count before numpy starts; library users keep their environment.
    code = ("import os, sys, doublelasso; print('numpy' in sys.modules); doublelasso.dml_logit; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "None"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(doublelasso)
    for name in doublelasso.__all__:
        assert name in listed, name
        assert getattr(doublelasso, name) is not None, name


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'doublelasso' has no attribute 'nope'$"):
        doublelasso.nope


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from doublelasso import *", namespace)
    assert set(doublelasso.__all__) <= set(namespace)
    assert namespace["dml_multi"] is doublelasso.dml_multi


def test_config_classes_keep_their_old_import_paths():
    from doublelasso import config, dml

    assert dml.DmlConfig is config.DmlConfig is doublelasso.DmlConfig
    assert dml.PenaltyConfig is config.PenaltyConfig is doublelasso.PenaltyConfig


def test_config_pickle_round_trip_keeps_the_fingerprint():
    cfg = doublelasso.DmlConfig(
        penalty=doublelasso.PenaltyConfig(method="cv"),
        level=0.1, instrument_scaling="sigma", seed=3,
    )
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert back.fingerprint() == cfg.fingerprint() != doublelasso.DmlConfig().fingerprint()
