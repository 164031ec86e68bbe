"""The one way the package runs independent work on several cores.

`parallel_map(fn, shared, items, jobs, cells_per_item=...)` returns
`[fn(shared, item) for item in items]`, in item order. Large jobs run on
the calling process plus a pool of `jobs - 1` spawned worker processes;
small ones, and every job with `jobs == 1` or a single item, run in the
calling process alone.

Every item is submitted to the pool in order, and the pool claims items
from the front. The caller walks the items from the back and runs each one
whose pool copy it can still cancel, so no item runs twice, the two sides
meet in the middle, and results and errors keep item order.

Every process fits on one BLAS thread. At these problem sizes a BLAS
thread pool buys no wall time and burns CPU spinning, and in a pool it
would spin against the other workers. The caller holds numpy's bundled
OpenBLAS to one thread through its thread-control functions while `fn`
runs, and restores the previous count afterwards; on a build without them
(a system BLAS, MKL), set `OPENBLAS_NUM_THREADS=1` or its equivalent.

Workers are started with the `spawn` method, so they import the package
afresh instead of inheriting the caller's threads and locks. Each worker
receives `fn` and `shared` once, when it starts, and then one item per
task; `fn` must therefore be a module-level function, and `shared` and the
items must pickle. While the workers start, the BLAS thread-count variables
are set to 1; the caller's environment is restored before it runs an item.

Worker processes re-import the main module when it is a script file, so a
script that reaches a pool must keep its top-level work under
`if __name__ == "__main__":`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor

# Jobs smaller than this many design cells (items x rows x design columns,
# times the lasso solves per selection step, dml.lasso_solves) run serially.
# The caller fits from the start, so a pool of jobs - 1 workers costs their
# boots in CPU, and the caller does not wait for them. Measured on a 2-core host: booting one
# spawned worker takes B = 0.6-0.75 s of wall time and S = 0.6-0.75 s of
# CPU. A job of W seconds of single-threaded CPU then takes (W + B) / 2 of
# wall time on the caller plus one worker instead of W: the pool pays in
# wall time from W = B on, and the wall time it saves, (W - B) / 2, covers
# the worker's start-up CPU from W = B + 2 S, about 2 s. A plug-in logistic
# fit costs c = 0.11-0.14 us of CPU per cell at n=2000, p=329 and
# 0.22-0.25 us at n=500, p=100, which puts that point at 14-18M cells and
# 8-9M cells. The 26-treatment survey fit (17M cells) is past it: a
# fresh-process CLI fit takes 2.8-3.5 s at two jobs and 3.1-3.9 s at one
# (8 alternating pairs). The four benchmark regimes' 20-replication studies
# (0.5-4M cells, about 1 s of CPU together) stay serial: each is shorter
# than a worker's boot, which would add its CPU and finish no sooner.
# Linear fits cost 0.10-0.18 us per cell, and a warm-started CV fit (10
# folds x 30 levels, 301 solves per step) 0.49 us (logistic) and 0.21 us
# (linear) per cell-solve at n=500, p=100 and 0.77 us and 0.39 us at
# n=200, p=20: the same range, so counting solves keeps c.
SERIAL_BELOW_CELLS = 8_000_000

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (fn, shared) of the pool this process works for; set only in workers.
_worker_task = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_control():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    numpy wheels built against scipy-openblas export these two symbols from
    their core extension; other builds (a system BLAS, MKL) leave the count
    to the BLAS thread-count variables.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _caller_blas_on_one_thread():
    """Hold numpy's BLAS in this process to one thread for the block."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@contextlib.contextmanager
def _single_threaded_blas():
    """Set the BLAS thread-count variables to 1 for the block, then restore them."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _start_worker(fn, shared) -> None:
    global _worker_task
    _worker_task = (fn, shared)


def _run_item(item):
    fn, shared = _worker_task
    return fn(shared, item)


def parallel_map(fn, shared, items, jobs: int, *, cells_per_item: int) -> list:
    """[fn(shared, item) for item in items], on up to `jobs` processes.

    The calling process is one of them and a pool holds the others. The pool
    is used only when more than one process would work (jobs, items and
    usable CPUs all above one) and the job holds at least
    SERIAL_BELOW_CELLS cells (len(items) * cells_per_item). An exception
    raised by `fn` propagates from the first item, in item order, that
    raised it; items not yet started are cancelled.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    with _caller_blas_on_one_thread():
        if workers <= 1 or len(items) * cells_per_item < SERIAL_BELOW_CELLS:
            return [fn(shared, item) for item in items]
        return _pooled_map(fn, shared, items, workers)


def _pooled_map(fn, shared, items, workers: int) -> list:
    pool = ProcessPoolExecutor(
        max_workers=workers - 1, mp_context=multiprocessing.get_context("spawn"),
        initializer=_start_worker, initargs=(fn, shared),
    )
    try:
        # The executor spawns its workers inside submit().
        with _single_threaded_blas():
            futures = [pool.submit(_run_item, item) for item in items]
        # The pool claims items from the front; the caller takes them from the
        # back, each one only if it can still cancel the pool's copy.
        for k in reversed(range(len(items))):
            if not futures[k].cancel():
                break
            futures[k] = _run_here(fn, shared, items[k])
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_here(fn, shared, item) -> Future:
    """fn(shared, item) in this process, its outcome held like a pool item's."""
    done = Future()
    try:
        done.set_result(fn(shared, item))
    except Exception as exc:  # raised in item order by the caller's result()
        done.set_exception(exc)
    return done
