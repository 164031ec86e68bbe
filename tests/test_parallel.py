"""The process pool behind --jobs: when it starts and what crosses into it."""

import functools
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy

from doublelasso import errors, parallel
from doublelasso.encoding import ColumnInfo, Dataset
from doublelasso.parallel import SERIAL_BELOW_CELLS, parallel_map, usable_cpus
from doublelasso.simulate import confounded_benchmark, gen_dgp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2, reason="a pool needs two usable CPUs")
needs_blas_control = pytest.mark.skipif(not parallel._blas_thread_control(),
                                        reason="no bundled BLAS exports a thread control")


def _where(offset, item):
    return os.getpid(), os.environ.get("OPENBLAS_NUM_THREADS"), offset + item


def _fail_at(bad, item):
    if item == bad:
        raise errors.RankDeficiencyError(("x3", "x7"))
    return item


def test_small_job_stays_in_the_calling_process():
    per_item = SERIAL_BELOW_CELLS // 3 - 1
    got = parallel_map(functools.partial(_where, 10), range(3), 4, cells_per_item=per_item)
    assert got == [(os.getpid(), os.environ.get("OPENBLAS_NUM_THREADS"), 10 + k)
                   for k in range(3)]


@pytest.mark.parametrize("jobs, items", [(1, range(4)), (4, range(1))])
def test_one_job_or_one_item_stays_serial(jobs, items):
    got = parallel_map(functools.partial(_where, 0), items, jobs,
                       cells_per_item=SERIAL_BELOW_CELLS)
    assert {pid for pid, _, _ in got} == {os.getpid()}


def _thread_counts():
    return [get() for get, _ in parallel._blas_thread_control().values()]


def _blas_threads_of(caller_pid, item):
    if os.getpid() == caller_pid:
        time.sleep(0.05)  # let the pool claim the front items first
    return os.getpid(), _thread_counts(), item


@needs_two_cpus
def test_large_job_runs_in_workers_with_single_threaded_blas(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = _thread_counts()
    got = parallel_map(functools.partial(_blas_threads_of, os.getpid()), range(6), 2,
                       cells_per_item=SERIAL_BELOW_CELLS)
    assert [item for _, _, item in got] == list(range(6))
    assert len({pid for pid, _, _ in got}) <= 2
    in_workers = [counts for pid, counts, _ in got if pid != os.getpid()]
    assert in_workers
    assert all(counts == [1] * len(before) for counts in in_workers)
    assert _thread_counts() == before
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert "MKL_NUM_THREADS" not in os.environ


@needs_two_cpus
def test_worker_errors_reach_the_caller_unchanged():
    with pytest.raises(errors.RankDeficiencyError) as info:
        parallel_map(functools.partial(_fail_at, 2), range(4), 2,
                     cells_per_item=SERIAL_BELOW_CELLS)
    assert info.value.columns == ("x3", "x7")
    assert str(info.value) == "rank-deficient design; offending columns: x3, x7"


def _blas_threads(item):
    return os.getpid(), _thread_counts()


@needs_blas_control
@pytest.mark.parametrize("cells_per_item",
                         [1, pytest.param(SERIAL_BELOW_CELLS, marks=needs_two_cpus)],
                         ids=["serial", "pooled"])
def test_caller_fits_on_one_blas_thread_and_restores_the_count(cells_per_item):
    controls = parallel._blas_thread_control().values()
    before = _thread_counts()
    for _, set_ in controls:
        set_(2)
    try:
        got = parallel_map(_blas_threads, range(6), 2, cells_per_item=cells_per_item)
        assert _thread_counts() == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
    assert os.getpid() in {pid for pid, _ in got}
    assert all(counts == [1] * len(controls) for _, counts in got)


def test_blas_thread_control_is_found_on_scipy_openblas():
    builds = {"numpy._core._multiarray_umath": np.show_config(mode="dicts"),
              "scipy.linalg._fblas": scipy.show_config(mode="dicts")}
    bundled = {module for module, config in builds.items()
               if config["Build Dependencies"]["blas"].get("name") == "scipy-openblas"}
    if not bundled:
        pytest.skip("neither numpy nor scipy is built against scipy-openblas")
    assert bundled <= parallel._blas_thread_control().keys()


def _fail_low_and_last(caller_pid, item):
    if os.getpid() == caller_pid and item < 5:
        time.sleep(0.05)  # let the pool claim the front items first
    if item == 0:
        raise errors.ParseError(f"item 0 in pid {os.getpid()}")
    if item == 11:
        raise errors.SchemaError("item 11")
    return item


@needs_two_cpus
def test_first_error_in_item_order_wins_over_the_callers():
    with pytest.raises(errors.ParseError) as info:
        parallel_map(functools.partial(_fail_low_and_last, os.getpid()), range(12), 2,
                     cells_per_item=SERIAL_BELOW_CELLS)
    assert str(info.value) != f"item 0 in pid {os.getpid()}"  # the pool ran item 0


class _Shared:
    """An input bound into `fn` that a weak reference can follow."""

    def __init__(self):
        self.caller = os.getpid()


def _pid_of(holder, item):
    if os.getpid() == holder.caller:
        time.sleep(0.05)  # let the pool claim the front items first
    return os.getpid()


@needs_two_cpus
def test_pooled_job_frees_its_state_without_a_collection(pool_always):
    # A CLI process runs with the collector off, so anything a pooled job
    # leaves in a reference cycle (the pool, its futures, the inputs bound
    # into `fn`) would live until the process exits.
    shared = _Shared()
    ref = weakref.ref(shared)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pids = parallel_map(functools.partial(_pid_of, shared), range(6), 2, cells_per_item=1)
        del shared
        freed = ref() is None
    finally:
        if enabled:
            gc.enable()
    assert set(pids) - {os.getpid()}, "no item ran in a worker"
    assert freed


def _claim(directory, item):
    with open(os.path.join(directory, f"{item}"), "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return item, os.getpid()


def _run_bounded(code, timeout=120):
    """Run `code` in a fresh interpreter and return its stdout as JSON.

    The interpreter and any workers it forked are killed after `timeout`
    seconds, so a pool that hangs fails the test instead of the suite.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.Popen([sys.executable, "-c", f"import sys; sys.path.insert(0, {here!r})\n"
                             + code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"no result within {timeout} s")
    assert proc.returncode == 0, err
    return json.loads(out)


@needs_two_cpus
def test_many_tiny_items_each_run_once_in_order(tmp_path):
    got = _run_bounded(
        "import functools, json\n"
        "from test_parallel import _claim\n"
        "from doublelasso.parallel import SERIAL_BELOW_CELLS, parallel_map\n"
        f"claim = functools.partial(_claim, {str(tmp_path)!r})\n"
        "print(json.dumps(parallel_map(claim, range(200), 2,\n"
        "                               cells_per_item=SERIAL_BELOW_CELLS)))\n")
    assert [item for item, _ in got] == list(range(200))
    runs = [(tmp_path / f"{item}").read_text().splitlines() for item in range(200)]
    assert [len(pids) for pids in runs] == [1] * 200
    assert 1 < len({pid for _, pid in got}) <= 2


def _die_in_worker(caller_pid, item):
    if os.getpid() != caller_pid:
        os._exit(3)
    time.sleep(0.01)
    return item


@needs_two_cpus
def test_a_dead_worker_raises_instead_of_hanging():
    got = _run_bounded(
        "import functools, json, os\n"
        "from test_parallel import _die_in_worker\n"
        "from doublelasso.parallel import SERIAL_BELOW_CELLS, parallel_map\n"
        "try:\n"
        "    parallel_map(functools.partial(_die_in_worker, os.getpid()), range(20), 2,\n"
        "                 cells_per_item=SERIAL_BELOW_CELLS)\n"
        "except Exception as exc:\n"
        "    print(json.dumps(type(exc).__name__))\n")
    assert got == "BrokenProcessPool"


def _unpicklable_in_worker(caller_pid, item):
    if os.getpid() == caller_pid:
        time.sleep(0.05)  # let the pool claim the front items first
        return item
    return threading.Lock()


@needs_two_cpus
def test_a_result_that_does_not_pickle_raises_its_pickling_error():
    with pytest.raises(TypeError, match="pickle"):
        parallel_map(functools.partial(_unpicklable_in_worker, os.getpid()), range(4), 2,
                     cells_per_item=SERIAL_BELOW_CELLS)


def _interrupt_in_caller(caller_pid, item):
    if os.getpid() == caller_pid:
        time.sleep(1.5)  # let the worker run every other item and start sending
        raise KeyboardInterrupt
    if item == 0:
        time.sleep(1.0)  # the worker's first item: the caller claims item 1 meanwhile
    return b"x" * 200_000  # more than a pipe holds, so its sender blocks


@needs_two_cpus
def test_an_interrupt_in_the_caller_ends_a_worker_blocked_on_sending():
    got = _run_bounded(
        "import functools, json, multiprocessing, os\n"
        "from test_parallel import _interrupt_in_caller\n"
        "from doublelasso.parallel import SERIAL_BELOW_CELLS, parallel_map\n"
        "try:\n"
        "    parallel_map(functools.partial(_interrupt_in_caller, os.getpid()), range(6), 2,\n"
        "                 cells_per_item=SERIAL_BELOW_CELLS)\n"
        "except KeyboardInterrupt:\n"
        "    print(json.dumps(len(multiprocessing.active_children())))\n", timeout=60)
    assert got == 0


SERIAL_COMMANDS = {
    "fit": ["fit", "--data", os.path.join(ROOT, "demo", "toy_survey.csv"),
            "--spec", os.path.join(ROOT, "demo", "encoding.yaml")],
    "simulate": ["simulate", "--spec", os.path.join(ROOT, "demo", "study.yaml")],
}


@pytest.mark.parametrize("argv", SERIAL_COMMANDS.values(), ids=SERIAL_COMMANDS)
def test_a_serial_command_loads_no_process_pool(argv):
    got = _run_bounded(
        "import contextlib, io, json, os, sys\n"
        "from doublelasso.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({argv!r})\n"
        "print(json.dumps([status, 'doublelasso.parallel' in sys.modules,\n"
        "                  [name for name in ('multiprocessing', 'concurrent.futures')\n"
        "                   if name in sys.modules]]))\n")
    assert got == [0, True, []]


@needs_blas_control
@needs_two_cpus
def test_pool_forks_after_a_threaded_blas_call():
    got = _run_bounded(
        "import functools, json, os\n"
        "import numpy as np\n"
        "from scipy.linalg import blas\n"
        "from test_parallel import _blas_threads_of\n"
        "from doublelasso import parallel\n"
        "for _, set_ in parallel._blas_thread_control().values():\n"
        "    set_(2)\n"
        "a = np.ones((1500, 1500))\n"
        "a @ a\n"
        "blas.dgemm(1.0, a, a)\n"
        "print(json.dumps([os.getpid(), parallel.parallel_map(\n"
        "    functools.partial(_blas_threads_of, os.getpid()), range(6), 2,\n"
        "    cells_per_item=parallel.SERIAL_BELOW_CELLS)]))\n")
    caller, rows = got
    assert [item for _, _, item in rows] == list(range(6))
    in_workers = [counts for pid, counts, _ in rows if pid != caller]
    assert in_workers
    assert all(counts == [1] * len(counts) for counts in in_workers)


@needs_two_cpus
def test_call_from_another_thread_stays_serial():
    outcome = {}

    def run():
        outcome["got"] = parallel_map(functools.partial(_blas_threads_of, os.getpid()),
                                      range(4), 2, cells_per_item=SERIAL_BELOW_CELLS)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    assert [(pid, item) for pid, _, item in outcome["got"]] == [(os.getpid(), k)
                                                                 for k in range(4)]


@needs_two_cpus
def test_jobs_stay_serial_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    got = parallel_map(functools.partial(_where, 0), range(4), 2,
                       cells_per_item=SERIAL_BELOW_CELLS)
    assert [(pid, value) for pid, _, value in got] == [(os.getpid(), k) for k in range(4)]


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs"):
        parallel_map(functools.partial(_where, 0), range(2), 0, cells_per_item=1)


def test_pickled_dataset_is_equal_and_read_only():
    cols = (ColumnInfo(name="d", role="treatment", source="d"),
            ColumnInfo(name="x1", role="control", source="x1"))
    ds = Dataset(y=[0.0, 1.0, 1.0], design=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                 columns=cols, outcome_name="won", n_dropped=2)
    back = pickle.loads(pickle.dumps(ds))
    assert np.array_equal(back.design, ds.design) and np.array_equal(back.y, ds.y)
    assert (back.columns, back.outcome_name, back.n_dropped) == (cols, "won", 2)
    assert not back.design.flags.writeable and not back.y.flags.writeable
    data, truth = pickle.loads(pickle.dumps(gen_dgp(confounded_benchmark().dgp, 3)))
    assert not data.design.flags.writeable
    assert not truth.beta.flags.writeable and not truth.gamma.flags.writeable


def _instances():
    for cls in vars(errors).values():
        if not (isinstance(cls, type) and issubclass(cls, Exception)
                and cls.__module__ == errors.__name__):
            continue
        if cls is errors.RankDeficiencyError:
            yield cls(("x1", "x2"))
        elif cls is errors.WeakInstrumentError:
            yield cls(3.5e-31)
        else:
            yield cls("row 4: bad value")


@pytest.mark.parametrize("exc", list(_instances()), ids=lambda e: type(e).__name__)
def test_every_error_pickles_to_the_same_type_message_and_fields(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
