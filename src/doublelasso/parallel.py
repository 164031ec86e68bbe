"""The one way the package runs independent work on several cores.

`parallel_map(fn, shared, items, jobs, cells_per_item=...)` returns
`[fn(shared, item) for item in items]`, in item order. Large jobs run on
the calling process plus a pool of `jobs - 1` forked worker processes;
small ones, and every job with `jobs == 1` or a single item, run in the
calling process alone.

Workers are forked: they start in tens of milliseconds and inherit `fn`,
`shared` and the imported package instead of importing them again. Fork
copies only the calling thread, so the pool forks only on Linux and only
when no other Python thread is alive; elsewhere, including a call from a
non-main thread, the job runs serially in the calling process. Items and
results still cross between processes by pickle, so `fn` must be a
module-level function and the items and results must pickle.

The caller and the workers claim items in order from one cursor, and a
worker holds one item at a time, so no item waits queued behind a busy
worker while the caller runs out of work. Each item runs once, results
keep item order, and the first failure in item order is raised and stops
further claims. A worker that dies fails its item with BrokenProcessPool.

Every process fits on one BLAS thread. At these problem sizes a BLAS
thread pool buys no wall time and burns CPU spinning, and in a pool it
would spin against the other workers. The command-line entry point
(`doublelasso.__main__`) sets `OPENBLAS_NUM_THREADS=1`, unless it is already
set, before numpy loads, so a CLI process never builds a thread pool. For
library use, numpy and scipy each bundle their own OpenBLAS; the caller
holds both to one thread through their thread-control functions while `fn`
runs, and restores the previous counts afterwards. The pool forks inside
that hold, so every worker starts with both counts at one; setting them
again in a worker would only restart the thread pools that fork shut down.
For library use on a build without these functions (a system BLAS, MKL),
set `OPENBLAS_NUM_THREADS=1` or its equivalent before starting Python: a
forked worker inherits an initialised BLAS, which no longer reads the
environment.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import multiprocessing
import os
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor

# parallel_map reads the cutoff from this module, so a test may set it here.
from .config import SERIAL_BELOW_CELLS

# Extension module and symbol suffix of each bundled OpenBLAS's thread
# control: numpy links a 64-bit-integer build, scipy a 32-bit one.
_BUNDLED_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._fblas", ""))

# (fn, shared) of the pool this process works for; set only in workers.
_worker_task = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_control() -> dict:
    """{module: (get, set)} for the thread count of each bundled OpenBLAS found.

    numpy and scipy wheels built against scipy-openblas export these
    symbols from the extension modules in `_BUNDLED_OPENBLAS`; other builds
    (a system BLAS, MKL) leave the count to the BLAS thread-count variables.
    """
    controls = {}
    for module, suffix in _BUNDLED_OPENBLAS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls[module] = (get, set_)
    return controls


@contextlib.contextmanager
def _caller_blas_on_one_thread():
    """Hold every bundled BLAS in this process to one thread for the block."""
    controls = _blas_thread_control().values()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def _start_worker(fn, shared) -> None:
    global _worker_task
    _worker_task = (fn, shared)


def _run_item(item):
    fn, shared = _worker_task
    return fn(shared, item)


def parallel_map(fn, shared, items, jobs: int, *, cells_per_item: int) -> list:
    """[fn(shared, item) for item in items], on up to `jobs` processes.

    The calling process is one of them and a pool of forked workers holds
    the others. The pool is used only when more than one process would work
    (jobs, items and usable CPUs all above one), the job holds at least
    SERIAL_BELOW_CELLS cells (len(items) * cells_per_item), and forking is
    safe: on Linux, with no other Python thread alive. An exception
    raised by `fn` propagates from the first item, in item order, that
    raised it; items not yet started are cancelled.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    with _caller_blas_on_one_thread():
        if (workers <= 1 or len(items) * cells_per_item < SERIAL_BELOW_CELLS
                or not sys.platform.startswith("linux") or threading.active_count() > 1):
            return [fn(shared, item) for item in items]
        return _pooled_map(fn, shared, items, workers)


def _pooled_map(fn, shared, items, workers: int) -> list:
    futures: list = [None] * len(items)
    lock, stop = threading.Lock(), threading.Event()
    cursor = 0

    def claim(start):
        """Claim the next item k, set futures[k] = start(items[k]) and return k.

        None once every item is claimed or `stop` is set. A pool item is
        submitted under the lock, so no claim outlives the shutdown below.
        """
        nonlocal cursor
        with lock:
            if stop.is_set() or cursor == len(items):
                return None
            cursor += 1
            futures[cursor - 1] = start(items[cursor - 1])
            return cursor - 1

    def feed(done=None) -> None:
        """Hand a worker its next item; called again as each of its items ends."""
        if done is not None and (done.cancelled() or done.exception() is not None):
            stop.set()
        elif (k := claim(lambda item: pool.submit(_run_item, item))) is not None:
            futures[k].add_done_callback(feed)

    pool = ProcessPoolExecutor(
        max_workers=workers - 1, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(fn, shared),
    )
    try:
        for _ in range(workers - 1):
            feed()
        while (k := claim(lambda item: Future())) is not None:
            try:
                futures[k].set_result(fn(shared, items[k]))
            except Exception as exc:  # raised in item order by the walk below
                stop.set()
                futures[k].set_exception(exc)
        # Items are claimed in order, so every item before the first failure
        # has a future, and this walk raises that failure before it reaches
        # an unclaimed item.
        return [f.result() for f in futures]
    finally:
        with lock:
            stop.set()
        pool.shutdown(wait=True, cancel_futures=True)
