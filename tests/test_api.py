"""The public surface, and the names the benchmark reaches into.

`__all__` is pinned to an explicit list, so growing or shrinking the
public API is a deliberate edit here. The README's library examples must
keep importing. The benchmark's traced run wraps module attributes by
name and its workloads call top-level names, so those must stay too.
"""

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
    # encoding
    "CategoricalRule", "ColumnInfo", "Dataset", "DerivedRule", "EncodingSpec",
    "InteractionRule", "NumericRule", "RawTable", "encode", "encoding_spec_from_yaml",
    "encoding_spec_to_yaml", "interact", "load_dataset", "load_table", "save_dataset",
    "sidecar_path", "synthetic_survey_schema", "synthetic_survey_table",
    # errors
    "DegenerateMomentError", "DegenerateOutcomeError", "DegenerateTreatmentError",
    "DoubleLassoError", "EmptyDatasetError", "EncodingError", "ParseError",
    "RankDeficiencyError", "SchemaError", "WeakInstrumentError",
    # glm
    "link", "link_deriv", "solve_spd", "wls_fit",
    # lasso
    "LassoFit", "PenaltyConfig", "RefitResult", "cv_lambda", "lambda_max_wls",
    "lasso_logistic", "lasso_wls", "logistic_lasso_loadings", "plugin_lambda",
    "post_refit", "wls_lasso_loadings",
    # dml
    "DmlConfig", "DmlEstimate", "FitFailure", "NuisanceArtifacts", "dml_linear",
    "dml_logit", "dml_multi", "iv_logit_objective", "naive_linear", "naive_logit",
    # report
    "MULTIPLICITY_NOTE", "REPORT_VERSION", "percent_labels", "render_coverage_reports",
    "render_fit_results",
    # simulate
    "CoverageReport", "DgpSpec", "StudySpec", "TruthRecord", "confounded_benchmark",
    "coverage_reports_from_yaml", "coverage_reports_to_yaml", "dataset_checksum",
    "gen_dgp", "null_logistic_benchmark", "run_replications", "run_study",
    "sparse_linear_benchmark", "sparse_logistic_benchmark", "study_spec_from_yaml",
    "study_spec_to_yaml", "summarize",
}


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def test_public_names_are_exactly_the_pinned_list():
    assert len(doublelasso.__all__) == len(set(doublelasso.__all__))
    assert set(doublelasso.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(doublelasso, name), name


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
    from doublelasso import config, dml, lasso

    assert dml.DmlConfig is config.DmlConfig is doublelasso.DmlConfig
    assert lasso.PenaltyConfig is config.PenaltyConfig is doublelasso.PenaltyConfig


def test_config_pickle_round_trip_keeps_the_fingerprint():
    cfg = doublelasso.DmlConfig(
        penalty=doublelasso.PenaltyConfig(method="cv", cv_folds=4, one_se=True),
        level=0.1, instrument_scaling="sigma", grid_points=51, seed=3,
    )
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert back.fingerprint() == cfg.fingerprint() != doublelasso.DmlConfig().fingerprint()
