"""The process pool behind --jobs: when it starts and what crosses into it."""

import os
import pickle
import threading
import time

import numpy as np
import pytest

from doublelasso import ColumnInfo, Dataset, errors, parallel
from doublelasso.parallel import SERIAL_BELOW_CELLS, parallel_map, usable_cpus

needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2, reason="a pool needs two usable CPUs")
needs_blas_control = pytest.mark.skipif(parallel._blas_thread_control() is None,
                                        reason="numpy's BLAS exports no thread control")


def _where(shared, item):
    return os.getpid(), os.environ.get("OPENBLAS_NUM_THREADS"), shared + item


def _fail_at(shared, item):
    if item == shared:
        raise errors.RankDeficiencyError(("x3", "x7"))
    return item


def test_small_job_stays_in_the_calling_process():
    per_item = SERIAL_BELOW_CELLS // 3 - 1
    got = parallel_map(_where, 10, range(3), 4, cells_per_item=per_item)
    assert got == [(os.getpid(), os.environ.get("OPENBLAS_NUM_THREADS"), 10 + k)
                   for k in range(3)]


@pytest.mark.parametrize("jobs, items", [(1, range(4)), (4, range(1))])
def test_one_job_or_one_item_stays_serial(jobs, items):
    got = parallel_map(_where, 0, items, jobs, cells_per_item=SERIAL_BELOW_CELLS)
    assert {pid for pid, _, _ in got} == {os.getpid()}


@needs_two_cpus
def test_large_job_runs_in_workers_with_single_threaded_blas(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    got = parallel_map(_where, 100, range(6), 2, cells_per_item=SERIAL_BELOW_CELLS)
    assert [value for _, _, value in got] == [100 + k for k in range(6)]
    assert len({pid for pid, _, _ in got}) <= 2
    assert {blas for pid, blas, _ in got if pid != os.getpid()} <= {"1"}
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert "MKL_NUM_THREADS" not in os.environ


@needs_two_cpus
def test_worker_errors_reach_the_caller_unchanged():
    with pytest.raises(errors.RankDeficiencyError) as info:
        parallel_map(_fail_at, 2, range(4), 2, cells_per_item=SERIAL_BELOW_CELLS)
    assert info.value.columns == ("x3", "x7")
    assert str(info.value) == "rank-deficient design; offending columns: x3, x7"


def _blas_threads(shared, item):
    get, _ = parallel._blas_thread_control()
    return os.getpid(), get()


@needs_blas_control
@pytest.mark.parametrize("cells_per_item",
                         [1, pytest.param(SERIAL_BELOW_CELLS, marks=needs_two_cpus)],
                         ids=["serial", "pooled"])
def test_caller_fits_on_one_blas_thread_and_restores_the_count(cells_per_item):
    get, set_ = parallel._blas_thread_control()
    before = get()
    set_(2)
    try:
        got = parallel_map(_blas_threads, None, range(6), 2, cells_per_item=cells_per_item)
        assert get() == 2
    finally:
        set_(before)
    assert os.getpid() in {pid for pid, _ in got}
    assert {threads for _, threads in got} == {1}


def test_blas_thread_control_is_found_on_scipy_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas.get('name')}")
    assert parallel._blas_thread_control() is not None


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
        parallel_map(_fail_low_and_last, os.getpid(), range(12), 2,
                     cells_per_item=SERIAL_BELOW_CELLS)
    assert str(info.value) != f"item 0 in pid {os.getpid()}"  # the pool ran item 0


def _claim(directory, item):
    with open(os.path.join(directory, f"{item}"), "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return item, os.getpid()


@needs_two_cpus
def test_many_tiny_items_each_run_once_in_order(tmp_path):
    outcome = {}

    def run():
        outcome["got"] = parallel_map(_claim, str(tmp_path), range(200), 2,
                                      cells_per_item=SERIAL_BELOW_CELLS)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    assert [item for item, _ in outcome["got"]] == list(range(200))
    runs = [(tmp_path / f"{item}").read_text().splitlines() for item in range(200)]
    assert [len(pids) for pids in runs] == [1] * 200
    assert len({pid for _, pid in outcome["got"]}) <= 2


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs"):
        parallel_map(_where, 0, range(2), 0, cells_per_item=1)


def test_pickled_dataset_is_equal_and_read_only():
    cols = (ColumnInfo(name="d", role="treatment", source="d"),
            ColumnInfo(name="x1", role="control", source="x1"))
    ds = Dataset(y=[0.0, 1.0, 1.0], design=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                 columns=cols, outcome_name="won", n_dropped=2)
    back = pickle.loads(pickle.dumps(ds))
    assert np.array_equal(back.design, ds.design) and np.array_equal(back.y, ds.y)
    assert (back.columns, back.outcome_name, back.n_dropped) == (cols, "won", 2)
    assert not back.design.flags.writeable and not back.y.flags.writeable


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
