"""End-to-end command-line tests run through subprocesses.

Each test invokes `python -m doublelasso ...` exactly as a user would, so
argument parsing, exit statuses, stdout/stderr routing, and byte-level
determinism of written files are all exercised for real. The tests near
the end call `cli.main` in this process instead, so that they can replace
a name the command calls.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

from doublelasso import save_dataset
from doublelasso.encoding import ColumnInfo, Dataset, sidecar_path
from doublelasso.glm import link
from doublelasso import cli
from doublelasso.cli import JOBS_ENV_VAR, version_string
from doublelasso.parallel import SERIAL_BELOW_CELLS, usable_cpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env=None):
    merged = os.environ.copy()
    merged.pop(JOBS_ENV_VAR, None)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "doublelasso", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


SPEC_YAML = """\
version: 1
outcome: enrolled
missing_policy: drop
columns:
  - {name: d, kind: numeric, standardize: false, role: treatment}
  - {name: x1, kind: numeric}
  - {name: x2, kind: numeric}
  - {name: x3, kind: numeric}
  - {name: x4, kind: numeric}
  - {name: x5, kind: numeric}
  - {name: x6, kind: numeric}
  - {name: region, kind: categorical, levels: [north, south], baseline: north}
interactions:
  - {a: region_south, b: x1}
"""

STUDY_YAML = """\
version: 1
reps: 4
methods: [dml]
level: 0.05
base_seed: 11
dgp:
  family: linear
  n: 150
  p: 5
  alpha0: 0.5
  beta: {pattern: first-s, magnitude: 0.4, sparsity: 2}
  gamma: {pattern: first-s, magnitude: 0.3, sparsity: 2}
"""

# intercept -30 pushes every logistic index so low that y is all zeros,
# so each replication fails and the failure ceiling must trip
STUDY_ALWAYS_FAILS_YAML = """\
version: 1
reps: 3
methods: [dml]
base_seed: 3
dgp:
  family: logistic
  n: 60
  p: 3
  alpha0: 0.2
  intercept: -30.0
  beta: {pattern: first-s, magnitude: 0.4, sparsity: 2}
"""


def _write_raw_table(path):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    n = 120
    X = rng.standard_normal((n, 6))
    d = 0.6 * X[:, 0] + rng.standard_normal(n)
    eta = 0.4 * d + 0.5 * X[:, 0] - 0.5 * X[:, 1]
    y = (rng.random(n) < link(eta)).astype(int)
    region = np.where(rng.random(n) < 0.5, "south", "north")
    lines = ["enrolled,d,x1,x2,x3,x4,x5,x6,region"]
    for i in range(n):
        cells = [str(int(y[i])), repr(float(d[i]))]
        cells += [repr(float(X[i, j])) for j in range(6)]
        cells.append(str(region[i]))
        if i in (5, 17):
            cells[4] = ""
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_degenerate_dataset(path):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    n = 80
    X = rng.standard_normal((n, 3))
    good = 0.5 * X[:, 0] + rng.standard_normal(n)
    flat = np.ones(n)
    y = (rng.random(n) < link(0.3 * good)).astype(float)
    columns = (
        ColumnInfo(name="good", role="treatment", source="good"),
        ColumnInfo(name="flat", role="treatment", source="flat"),
        ColumnInfo(name="x1", role="control", source="x1"),
        ColumnInfo(name="x2", role="control", source="x2"),
        ColumnInfo(name="x3", role="control", source="x3"),
    )
    ds = Dataset(y=y, design=np.column_stack([good, flat, X]),
                 columns=columns, outcome_name="y")
    save_dataset(ds, str(path))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: raw table, specs, and one encoded dataset."""
    root = tmp_path_factory.mktemp("cliws")
    paths = {
        "data": root / "data.csv",
        "spec": root / "spec.yaml",
        "encoded": root / "dataset.tsv",
        "degenerate": root / "const.tsv",
        "study": root / "study.yaml",
        "study_fail": root / "study_fail.yaml",
        "root": root,
    }
    _write_raw_table(paths["data"])
    paths["spec"].write_text(SPEC_YAML, encoding="utf-8")
    paths["study"].write_text(STUDY_YAML, encoding="utf-8")
    paths["study_fail"].write_text(STUDY_ALWAYS_FAILS_YAML, encoding="utf-8")
    _write_degenerate_dataset(paths["degenerate"])
    proc = run_cli("encode", "--data", str(paths["data"]),
                   "--spec", str(paths["spec"]), "--out", str(paths["encoded"]))
    assert proc.returncode == 0, proc.stderr
    paths["encode_stdout"] = proc.stdout
    return paths


# ---------------------------------------------------------------- version


def test_version_flag_prints_config_fingerprint():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == (
        "doublelasso 0.1.0 "
        "[instrument=sqrt-sigma;penalty=plugin(c=1.1);grid=401;level=0.05]"
    )
    assert proc.stdout.strip() == version_string()


# Runs the entry point in a child interpreter, then reports what its start
# left behind: the BLAS thread counts and the thread-count variable.
ENTRY_PROBE = """\
import contextlib, io, json, os, sys
import doublelasso.__main__ as entry
numpy_before_main = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    status = entry.main(["--version"])
from doublelasso import parallel
print(json.dumps({
    "numpy_before_main": numpy_before_main, "status": status,
    "env": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": [get() for get, _ in parallel._blas_thread_control().values()],
}))
"""


def _entry_probe(openblas_threads=None) -> dict:
    env = os.environ.copy()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_entry_point_module_loads_no_numpy_before_main():
    assert _entry_probe()["numpy_before_main"] is False


def test_entry_point_starts_every_bundled_blas_on_one_thread():
    probe = _entry_probe()
    assert probe["status"] == 0
    assert probe["env"] == "1"
    if not probe["threads"]:
        pytest.skip("no BLAS thread-control functions in this build")
    assert probe["threads"] == [1] * len(probe["threads"])


def test_entry_point_keeps_an_explicit_blas_thread_count():
    assert _entry_probe("3")["env"] == "3"


# ---------------------------------------------------------------- imports
# Each probe runs in a child interpreter, so nothing this test process has
# already imported can hide what a fresh start loads.


def _child(code: str, cwd=None) -> list[str]:
    # The child imports the package this process imports, from any directory.
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(cli.__file__)), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_module_import_loads_no_numpy():
    assert _child("import sys, doublelasso.cli; print('numpy' in sys.modules)") == ["False"]


def test_version_loads_no_numpy():
    code = ("import sys; from doublelasso.__main__ import main; status = main(['--version']); "
            "print(status, 'numpy' in sys.modules)")
    assert _child(code) == [
        "doublelasso 0.1.0 [instrument=sqrt-sigma;penalty=plugin(c=1.1);grid=401;level=0.05]",
        "0 False",
    ]


def _read_readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_encode_loads_no_scipy_and_prints_the_readme_lines(tmp_path):
    match = re.search(r"^\$ doublelasso encode (.+)\n((?:.+\n)+)", _read_readme(), re.MULTILINE)
    argv, expected = ["encode", *match.group(1).split()], match.group(2).splitlines()
    shutil.copytree(os.path.join(ROOT, "demo"), tmp_path / "demo")
    code = ("import sys; from doublelasso.__main__ import main; "
            f"status = main({argv!r}); print(status, 'scipy' in sys.modules)")
    assert _child(code, cwd=tmp_path) == [*expected, "0 False"]


def test_encode_loads_no_process_pool(tmp_path):
    # The --jobs help quotes the pool's size cutoff; reading it must not
    # load the pool itself.
    shutil.copytree(os.path.join(ROOT, "demo"), tmp_path / "demo")
    code = ("import sys, contextlib, io; from doublelasso.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['encode', '--data', 'demo/toy_survey.csv', '--spec',\n"
            "                   'demo/encoding.yaml', '--out', 'demo/encoded.tsv'])\n"
            "print(status, 'multiprocessing' in sys.modules, 'doublelasso.parallel' in sys.modules)")
    assert _child(code, cwd=tmp_path) == ["0 False False"]


def test_config_import_and_lazy_root_config_load_no_numpy():
    code = ("import sys, doublelasso.config, doublelasso; doublelasso.DmlConfig; "
            "print('numpy' in sys.modules)")
    assert _child(code) == ["False"]


# ---------------------------------------------------------------- collector
# A command's process runs with cyclic garbage collection off and freezes
# what is left at exit; `cli.main` called from Python leaves the collector
# alone. Each probe runs in a child interpreter, whose collector state is
# its own.

DEMO_FIT = ["fit", "--data", os.path.join(ROOT, "demo", "toy_survey.csv"),
            "--spec", os.path.join(ROOT, "demo", "encoding.yaml")]

GC_STATE_PROBE = """\
import contextlib, gc, io
from doublelasso.{module} import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main({argv!r})
print(status, gc.isenabled(), gc.get_freeze_count() > 0)
"""


@pytest.mark.parametrize("argv", [["--version"], DEMO_FIT], ids=["version", "fit"])
def test_entry_point_turns_the_collector_off_and_freezes_at_exit(argv):
    assert _child(GC_STATE_PROBE.format(module="__main__", argv=argv)) == ["0 False True"]


@pytest.mark.parametrize("argv", [["--version"], DEMO_FIT], ids=["version", "fit"])
def test_cli_main_leaves_the_collector_alone(argv):
    assert _child(GC_STATE_PROBE.format(module="cli", argv=argv)) == ["0 True False"]


# Runs a command twice under a disabled collector: the first run loads every
# module it needs (imports leave garbage of their own), the second saves all
# the cyclic garbage it leaves. The bound is what building the argument
# parser alone leaves, since a parse leaves nothing else.
GARBAGE_PROBE = """\
import contextlib, gc, io, json
gc.disable()
from doublelasso import cli, parallel
parallel.SERIAL_BELOW_CELLS = {cutoff}
pooled = []
pooled_map = parallel._pooled_map
parallel._pooled_map = lambda *args: pooled.append(1) or pooled_map(*args)

def run():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main({argv!r})

run()
gc.collect()
cli.build_parser()
parser = gc.collect()
del pooled[:]
gc.set_debug(gc.DEBUG_SAVEALL)
status = run()
gc.collect()
print(json.dumps({{"status": status, "pooled": bool(pooled), "parser": parser,
                  "garbage": len(gc.garbage),
                  "types": sorted({{type(o).__name__ for o in gc.garbage}})}}))
"""

RUN_STATE = {"Dataset", "DmlEstimate", "FitFailure", "Future", "ProcessPoolExecutor"}


@pytest.mark.parametrize("argv, status, pooled", [
    (["fit", "--data", "{data}", "--spec", "{spec}", "--penalty", "cv"], 0, False),
    (["simulate", "--spec", "{study_fail}"], 4, False),
    pytest.param(["simulate", "--spec", "{study}", "--jobs", "2"], 0, True,
                 marks=pytest.mark.skipif(usable_cpus() < 2, reason="a pool needs two CPUs")),
], ids=["fit-cv", "simulate-failures", "simulate-pooled"])
def test_a_run_leaves_no_cyclic_garbage_beyond_the_parser(ws, argv, status, pooled):
    paths = {key: str(ws[key]) for key in ("data", "spec", "study", "study_fail")}
    code = GARBAGE_PROBE.format(cutoff=0 if pooled else SERIAL_BELOW_CELLS,
                                argv=[arg.format(**paths) for arg in argv])
    probe = json.loads(_child(code)[-1])
    assert (probe["status"], probe["pooled"]) == (status, pooled)
    assert RUN_STATE.isdisjoint(probe["types"]), probe["types"]
    assert probe["garbage"] <= probe["parser"] < 1000, probe


# ---------------------------------------------------------------- deferred numpy modules
# A command's process fits without executing the numpy modules that scipy's
# array-API shim star-imports, and runs each one in full on first use;
# library use leaves `sys.meta_path` and numpy's modules alone.

# One module that each deferred package executes as soon as it runs.
DEFERRED_BODIES = ["numpy.f2py.crackfortran", "numpy.testing._private.utils",
                   "numpy.polynomial.polynomial", "numpy.ctypeslib._ctypeslib"]

DEFERRED_PROBE = """\
import contextlib, io, json, sys
import doublelasso.__main__ as entry
fired = []
find_spec = entry._DeferNumpyExtras.find_spec

def counted(self, name, *args):
    if name == "scipy":
        fired.append(name)
    return find_spec(self, name, *args)

entry._DeferNumpyExtras.find_spec = counted
statuses, finders = [], []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(entry.main(argv))
    finders.append(sum(isinstance(f, entry._DeferNumpyExtras) for f in sys.meta_path))
executed = [name for name in {bodies!r} if name in sys.modules]
import numpy
numpy.testing.assert_equal(1, 1)
print(json.dumps({{"statuses": statuses, "finders": finders, "fired": len(fired),
                  "executed": executed, "polynomial": bool(numpy.polynomial.Polynomial([1, 2])(1) == 3),
                  "loaded": [name for name in {bodies!r} if name in sys.modules]}}))
"""


def _deferred_probe(*argvs) -> dict:
    return json.loads(_child(DEFERRED_PROBE.format(argvs=list(argvs),
                                                   bodies=DEFERRED_BODIES))[-1])


@pytest.mark.parametrize("argv", [
    DEMO_FIT, [*DEMO_FIT, "--penalty", "cv"], ["simulate", "--spec", "{study}"],
], ids=["fit", "fit-cv", "simulate"])
def test_entry_point_fits_without_executing_the_deferred_numpy_modules(ws, argv):
    probe = _deferred_probe([arg.format(study=ws["study"]) for arg in argv])
    assert (probe["statuses"], probe["finders"], probe["fired"]) == ([0], [0], 1)
    assert probe["executed"] == []
    # Used after the command, each deferred module runs and works as usual.
    assert probe["polynomial"] is True
    assert "numpy.testing._private.utils" in probe["loaded"]
    assert "numpy.polynomial.polynomial" in probe["loaded"]


def test_entry_point_installs_one_finder_however_often_it_runs():
    probe = _deferred_probe(["--version"], ["--version"], DEMO_FIT)
    assert probe["statuses"] == [0, 0, 0]
    assert probe["finders"] == [1, 1, 0]
    assert probe["fired"] == 1
    assert probe["executed"] == []


def test_library_use_leaves_the_import_system_and_numpy_alone():
    code = f"""\
import contextlib, importlib.util, io, sys
meta_path = list(sys.meta_path)
import doublelasso.dml
from doublelasso import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main({DEMO_FIT!r})
lazy = [name for name, m in sys.modules.items() if type(m) is importlib.util._LazyModule]
print(status, sys.meta_path == meta_path, lazy)
"""
    assert _child(code) == ["0 True []"]


# ---------------------------------------------------------------- encode


def test_encode_reports_shape_and_written_files(ws):
    lines = ws["encode_stdout"].splitlines()
    assert lines[0] == "n=118 p=9 dropped=2"
    assert lines[1] == f"wrote {ws['encoded']}"
    assert lines[2] == f"wrote {sidecar_path(str(ws['encoded']))}"
    assert ws["encoded"].exists()
    assert os.path.exists(sidecar_path(str(ws["encoded"])))


def test_encode_is_byte_deterministic(ws, tmp_path):
    out1, out2 = tmp_path / "e1.tsv", tmp_path / "e2.tsv"
    for out in (out1, out2):
        proc = run_cli("encode", "--data", str(ws["data"]),
                       "--spec", str(ws["spec"]), "--out", str(out))
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == ws["encoded"].read_bytes()


def test_encode_missing_data_file_exits_2(ws, tmp_path):
    proc = run_cli("encode", "--data", str(tmp_path / "nope.csv"),
                   "--spec", str(ws["spec"]), "--out", str(tmp_path / "o.tsv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_encode_malformed_spec_exits_2(ws, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\noutcome: enrolled\ncolumns: []\n", encoding="utf-8")
    proc = run_cli("encode", "--data", str(ws["data"]),
                   "--spec", str(bad), "--out", str(tmp_path / "o.tsv"))
    assert proc.returncode == 2
    assert "columns" in proc.stderr


def test_encode_empty_result_exits_2(ws, tmp_path):
    data = tmp_path / "allmissing.csv"
    data.write_text("enrolled,d,x1,x2,x3,x4,x5,x6,region\n"
                    "1,0.1,,0.2,0.3,0.4,0.5,0.6,north\n"
                    "0,0.2,,0.1,0.3,0.4,0.5,0.6,south\n", encoding="utf-8")
    proc = run_cli("encode", "--data", str(data),
                   "--spec", str(ws["spec"]), "--out", str(tmp_path / "o.tsv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def _spec_tokens_case(ws, tmp_path, policy, marker="."):
    """The workspace table with `marker` in x1 at data rows 3 and 9, and the
    workspace spec under `policy` with missing tokens "" and "." only."""
    lines = ws["data"].read_text(encoding="utf-8").splitlines()
    for row in (3, 9):
        cells = lines[row].split(",")
        cells[2] = marker
        lines[row] = ",".join(cells)
    data = tmp_path / "dots.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = tmp_path / "dots.yaml"
    spec.write_text(SPEC_YAML.replace("missing_policy: drop", f"missing_policy: {policy}")
                    + 'missing_tokens: ["", "."]\n', encoding="utf-8")
    return run_cli("encode", "--data", str(data), "--spec", str(spec),
                   "--out", str(tmp_path / "dots.tsv"))


def test_encode_drops_and_counts_rows_with_the_spec_missing_tokens(ws, tmp_path):
    proc = _spec_tokens_case(ws, tmp_path, "drop")
    assert proc.returncode == 0, proc.stderr
    # two rows with an empty x3 and two with a "." in x1
    assert proc.stdout.splitlines()[0] == "n=116 p=9 dropped=4"


def test_encode_imputes_the_spec_missing_tokens_with_indicators(ws, tmp_path):
    proc = _spec_tokens_case(ws, tmp_path, "zero-indicator")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "n=120 p=11 dropped=0"
    header = (tmp_path / "dots.tsv").read_text(encoding="utf-8").splitlines()[0].split("\t")
    assert {"x1_missing", "x3_missing"} <= set(header)


def test_spec_missing_tokens_replace_the_default_list(ws, tmp_path):
    proc = _spec_tokens_case(ws, tmp_path, "drop", marker="NA")
    assert proc.returncode == 2
    assert proc.stderr == "error: column 'x1': non-numeric value 'NA' at data row 3\n"


# ---------------------------------------------------------------- fit


def test_fit_encoded_dataset_prints_aligned_table(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["Treatment", "Coefficient", "p-value"]
    assert lines[1].split()[0] == "d"
    note = "Note: p-values are per-treatment and unadjusted for multiple testing."
    assert proc.stdout.count(note) == 1


def test_fit_from_raw_table_with_spec(ws):
    proc = run_cli("fit", "--data", str(ws["data"]), "--spec", str(ws["spec"]),
                   "--family", "logit")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[0] == "d"


def test_fit_structured_output_round_trips(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--format", "structured")
    assert proc.returncode == 0
    doc = yaml.safe_load(proc.stdout)
    assert doc["version"] == 1
    assert doc["rows"][0]["treatment"] == "d"
    assert doc["rows"][0]["n"] == 118
    assert doc["failures"] == []


def test_fit_tsv_output_has_note_comment(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--format", "tsv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("Treatment\tCoefficient\t")
    assert any(ln.startswith("# note: ") for ln in lines)


def test_fit_decimals_flag(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--decimals", "5")
    row = proc.stdout.splitlines()[1].split()
    assert all("." in c and len(c.split(".")[1]) == 5 for c in row[1:6])


def test_fit_treatment_subset_in_request_order(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--treatments", "x1,d")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split()[0] == "x1"
    assert lines[2].split()[0] == "d"


def test_fit_writes_out_file_and_says_so(ws, tmp_path):
    out = tmp_path / "fit.txt"
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"wrote {out}"
    assert out.read_text(encoding="utf-8").startswith("Treatment")


def test_fit_is_byte_deterministic_across_jobs(ws, tmp_path):
    outs = [tmp_path / f"r{k}.tsv" for k in range(3)]
    cmds = [
        ("--jobs", "1"),
        ("--jobs", "4"),
        (),
    ]
    envs = [None, None, {JOBS_ENV_VAR: "4"}]
    for out, extra, env in zip(outs, cmds, envs):
        proc = run_cli("fit", "--data", str(ws["encoded"]),
                       "--treatments", "d,x1", "--format", "tsv",
                       "--out", str(out), *extra, env=env)
        assert proc.returncode == 0, proc.stderr
    blobs = [o.read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_fit_unknown_selector_exits_2(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--treatments", "ghost")
    assert proc.returncode == 2
    assert "ghost" in proc.stderr


def test_fit_overlapping_selectors_exit_2(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]),
                   "--treatments", "d", "--controls", "d")
    assert proc.returncode == 2
    assert "both treatment and control" in proc.stderr


def test_fit_outcome_mismatch_exits_2(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--outcome", "converted")
    assert proc.returncode == 2
    assert "converted" in proc.stderr


def test_fit_encoded_without_sidecar_exits_2(ws, tmp_path):
    orphan = tmp_path / "orphan.tsv"
    orphan.write_bytes(ws["encoded"].read_bytes())
    proc = run_cli("fit", "--data", str(orphan))
    assert proc.returncode == 2
    assert "sidecar" in proc.stderr


def test_fit_header_only_dataset_exits_2(ws, tmp_path):
    empty = tmp_path / "empty.tsv"
    header = ws["encoded"].read_text(encoding="utf-8").splitlines()[0]
    empty.write_text(header + "\n", encoding="utf-8")
    with open(sidecar_path(str(ws["encoded"])), "rb") as src, \
            open(sidecar_path(str(empty)), "wb") as dst:
        dst.write(src.read())
    proc = run_cli("fit", "--data", str(empty))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "no data rows" in proc.stderr


def test_fit_bad_level_exits_2(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--level", "1.5")
    assert proc.returncode == 2


def test_fit_captures_failures_without_fail_fast(ws):
    proc = run_cli("fit", "--data", str(ws["degenerate"]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split()[0] == "good"
    assert "Failures:" in proc.stdout
    assert "flat: DegenerateTreatmentError:" in proc.stdout


def test_fit_fail_fast_exits_3(ws):
    proc = run_cli("fit", "--data", str(ws["degenerate"]), "--fail-fast")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_jobs_env_var_must_be_an_integer(ws):
    proc = run_cli("fit", "--data", str(ws["encoded"]),
                   env={JOBS_ENV_VAR: "many"})
    assert proc.returncode == 2
    assert "must be an integer" in proc.stderr


def test_jobs_flag_wins_over_bad_env_value(ws):
    bad_env = {JOBS_ENV_VAR: "0"}
    proc = run_cli("fit", "--data", str(ws["encoded"]), env=bad_env)
    assert proc.returncode == 2
    assert "at least 1" in proc.stderr
    proc = run_cli("fit", "--data", str(ws["encoded"]), "--jobs", "1", env=bad_env)
    assert proc.returncode == 0


# ---------------------------------------------------------------- simulate


def test_simulate_prints_verdict_and_writes_report(ws, tmp_path):
    out = tmp_path / "report.yaml"
    proc = run_cli("simulate", "--spec", str(ws["study"]), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"wrote {out}"
    assert re.fullmatch(
        r"dml: coverage=[01]\.\d{3} mean_bias=[+-]\d+\.\d{4} \(4/4 ok\)", lines[1]
    )
    doc = yaml.safe_load(out.read_text(encoding="utf-8"))
    assert doc["reports"][0]["method"] == "dml"
    assert doc["reports"][0]["reps"] == 4


def test_simulate_aligned_report_format(ws, tmp_path):
    out = tmp_path / "report.txt"
    proc = run_cli("simulate", "--spec", str(ws["study"]),
                   "--out", str(out), "--format", "aligned")
    assert proc.returncode == 0
    assert out.read_text(encoding="utf-8").startswith("Method")


def test_simulate_is_byte_deterministic_across_jobs(ws, tmp_path):
    out1, out2 = tmp_path / "r1.yaml", tmp_path / "r2.yaml"
    p1 = run_cli("simulate", "--spec", str(ws["study"]), "--out", str(out1),
                 "--jobs", "1")
    p2 = run_cli("simulate", "--spec", str(ws["study"]), "--out", str(out2),
                 "--jobs", "3")
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert p1.stdout.splitlines()[1:] == p2.stdout.splitlines()[1:]


POOL_STUDY_YAML = """\
version: 1
reps: {reps}
methods: [dml]
base_seed: 5
dgp:
  family: linear
  n: {n}
  p: {p}
  alpha0: 0.5
  beta: {{pattern: first-s, magnitude: 0.5, sparsity: 5}}
  gamma: {{pattern: first-s, magnitude: 0.3, sparsity: 5}}
"""


def test_simulate_above_the_pool_cutoff_is_byte_identical_across_jobs(tmp_path):
    reps, n, p = 104, 400, 200
    # Large enough (reps x n x design columns) that --jobs 2 starts workers.
    assert reps * n * (p + 1) >= SERIAL_BELOW_CELLS
    spec = tmp_path / "pool.yaml"
    spec.write_text(POOL_STUDY_YAML.format(reps=reps, n=n, p=p), encoding="utf-8")
    outs = [tmp_path / f"r{jobs}.yaml" for jobs in (1, 2)]
    procs = [run_cli("simulate", "--spec", str(spec), "--out", str(out), "--jobs", jobs)
             for out, jobs in zip(outs, ("1", "2"))]
    assert [p.returncode for p in procs] == [0, 0], procs[-1].stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert procs[0].stdout.splitlines()[1:] == procs[1].stdout.splitlines()[1:]
    assert yaml.safe_load(outs[0].read_text())["reports"][0]["successes"] == reps


def test_package_import_leaves_scipy_stats_out():
    # Every CLI call pays for what the package imports. The package root
    # loads names on first use, so import what the CLI loads.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, doublelasso.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simulate_seed_override_changes_report(ws, tmp_path):
    out1, out2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
    run_cli("simulate", "--spec", str(ws["study"]), "--out", str(out1))
    run_cli("simulate", "--spec", str(ws["study"]), "--out", str(out2),
            "--seed", "999")
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_failure_ceiling_exits_4(ws):
    proc = run_cli("simulate", "--spec", str(ws["study_fail"]))
    assert proc.returncode == 4
    assert "(0/3 ok)" in proc.stdout
    assert "failure rate above the ceiling" in proc.stderr


def test_simulate_malformed_spec_exits_2(ws, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\nreps: 4\nbudget: big\ndgp: {family: linear, n: 50, p: 2, alpha0: 0.1}\n",
                   encoding="utf-8")
    proc = run_cli("simulate", "--spec", str(bad))
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_simulate_missing_version_exits_2(ws, tmp_path):
    bad = tmp_path / "nover.yaml"
    bad.write_text("reps: 4\ndgp: {family: linear, n: 50, p: 2, alpha0: 0.1}\n",
                   encoding="utf-8")
    proc = run_cli("simulate", "--spec", str(bad))
    assert proc.returncode == 2
    assert "version" in proc.stderr


# ---------------------------------------------------------------- decimals
# A bad --decimals fails before any fitting, in the cases the renderer
# would reject it; the stand-ins below raise if a fit or study starts.


def _must_not_run(*args, **kwargs):
    raise AssertionError("fitting started before --decimals was checked")


def test_fit_rejects_bad_decimals_before_fitting(ws, monkeypatch, capsys):
    monkeypatch.setattr(cli, "dml_multi", _must_not_run)
    status = cli.main(["fit", "--data", str(ws["encoded"]), "--decimals", "-1"])
    assert status == 2
    assert capsys.readouterr().err == "error: decimals must be nonnegative\n"


@pytest.mark.parametrize("seed, problem", [("-1", "nonnegative"), (str(2**64), "below 2**64")])
def test_fit_rejects_a_bad_seed_before_loading_or_fitting(ws, monkeypatch, capsys, seed, problem):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the dataset was loaded or fitted before --seed was checked")

    monkeypatch.setattr(cli, "load_dataset", must_not_run)
    monkeypatch.setattr(cli, "dml_multi", must_not_run)
    status = cli.main(["fit", "--data", str(ws["encoded"]), "--penalty", "cv", "--seed", seed])
    assert status == 2
    assert capsys.readouterr().err == f"error: seed must be {problem}\n"


def test_simulate_rejects_bad_decimals_before_the_study(ws, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_study", _must_not_run)
    status = cli.main(["simulate", "--spec", str(ws["study"]), "--out", str(tmp_path / "r.txt"),
                       "--format", "aligned", "--decimals", "-2"])
    assert status == 2
    assert capsys.readouterr().err == "error: decimals must be nonnegative\n"
    assert not (tmp_path / "r.txt").exists()


def test_simulate_rejects_a_seed_past_2_to_the_64_before_the_study(ws, monkeypatch, capsys):
    # 4 replications from this base seed would draw from seeds up to 2**64 + 2.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a replication ran before the seed range was checked")

    monkeypatch.setattr(cli, "run_study", must_not_run)
    status = cli.main(["simulate", "--spec", str(ws["study"]), "--seed", str(2**64 - 1)])
    assert status == 2
    assert capsys.readouterr().err == "error: base_seed + reps - 1 must be below 2**64\n"


@pytest.mark.parametrize("extra", [[], ["--format", "structured", "--out", "r.yaml"]])
def test_simulate_ignores_decimals_it_does_not_render(ws, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_study", lambda *args, **kwargs: [])
    assert cli.main(["simulate", "--spec", str(ws["study"]), "--decimals", "-2", *extra]) == 0


# ---------------------------------------------------------------- tracing
# perfbench/tracing.py times the CLI's layers by setting wrappers on the cli
# module, so every command must call what the module holds when it runs.


def _cli_trace_names() -> set[str]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    return {attr for mod, attr, _ in tracing.instrumentation(tracing.Tracer()) if mod is cli}


def test_every_name_the_tracer_wraps_is_a_cli_attribute():
    names = _cli_trace_names()
    assert len(names) == 11
    for name in names:
        assert hasattr(cli, name), name


ENCODE_NAMES = {"load_table", "encoding_spec_from_yaml", "encode"}


@pytest.mark.parametrize("argv, expected", [
    (["encode", "--data", "{data}", "--spec", "{spec}", "--out", "{tmp}/enc.tsv"],
     ENCODE_NAMES | {"save_dataset"}),
    (["fit", "--data", "{encoded}"], {"load_dataset", "dml_multi", "render_fit_results"}),
    (["fit", "--data", "{data}", "--spec", "{spec}"],
     ENCODE_NAMES | {"dml_multi", "render_fit_results"}),
    (["simulate", "--spec", "{study}", "--format", "aligned", "--out", "{tmp}/r.txt"],
     {"study_spec_from_yaml", "run_study", "render_coverage_reports"}),
    (["simulate", "--spec", "{study}", "--out", "{tmp}/r.yaml"],
     {"study_spec_from_yaml", "run_study", "coverage_reports_to_yaml"}),
], ids=["encode", "fit", "fit-spec", "simulate-aligned", "simulate-structured"])
def test_commands_call_the_names_set_on_the_cli_module(ws, tmp_path, monkeypatch, capsys,
                                                        argv, expected):
    called = set()

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            called.add(name)
            return original(*args, **kwargs)

        return wrapper

    for name in _cli_trace_names():
        monkeypatch.setattr(cli, name, spy(name))
    paths = {key: str(ws[key]) for key in ("data", "spec", "encoded", "study")}
    assert cli.main([arg.format(tmp=tmp_path, **paths) for arg in argv]) == 0
    capsys.readouterr()
    assert called == expected
