"""The one way the package runs independent work on several cores.

`parallel_map(fn, shared, items, jobs, cells_per_item=...)` returns
`[fn(shared, item) for item in items]`, in item order. Large jobs run in a
pool of spawned worker processes; small ones, and every job with
`jobs == 1` or a single item, run in the calling process.

Workers are started with the `spawn` method, so they import the package
afresh instead of inheriting the caller's threads and locks. Each worker
receives `fn` and `shared` once, when it starts, and then one item per
task; `fn` must therefore be a module-level function, and `shared` and the
items must pickle. While the workers start, the BLAS thread-count variables
are set to 1: the pool already keeps every core busy, and a multithreaded
BLAS inside each worker would only spin against the other workers. The
caller's environment is restored before any result is read.

Worker processes re-import the main module when it is a script file, so a
script that reaches a pool must keep its top-level work under
`if __name__ == "__main__":`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

# Jobs smaller than this many design cells (items x rows x design columns,
# times the lasso solves per selection step, dml.lasso_solves) run serially.
# Measured on a 2-core host with single-threaded BLAS: starting and stopping
# two workers costs S = 0.6-0.7 s of wall time and 1.0-1.3 s of CPU. The
# cutoff takes c = 0.3 us of CPU per cell for a plug-in logistic fit: with
# two workers a job of N cells takes c*N/2 + S instead of c*N, so the work
# moved to the second worker is at least twice the start-up cost from
# N = 4 S / c = 8M cells on. Since each selection step prepares its design
# once (lasso._Design), a plug-in logistic fit costs 0.11-0.14 us per cell
# at n=2000, p=329 and 0.22-0.25 us at n=500, p=100, which puts 4 S / c
# near 20M, close to the 26-treatment survey fit's 17M cells; that fit
# still ran faster in the pool (fresh-process CLI, 4 pairs: 2.8-3.6 s at
# two workers, 2.9-3.9 s in one process), so moving the cutoff needs its
# own measurements. Before the designs were shared, linear fits cost
# 0.10-0.18 us per cell, so a linear job at the cutoff gains little wall
# time for its start-up CPU, and a warm-started CV fit (10 folds x 30
# levels, 301 solves per step) cost 0.49 us (logistic) and 0.21 us
# (linear) per cell-solve at n=500, p=100, and 0.77 us and 0.39 us at
# n=200, p=20: the same range, so counting solves keeps c.
# Below the cutoff the pool would spend that CPU for little or no gain.
SERIAL_BELOW_CELLS = 8_000_000

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (fn, shared) of the pool this process works for; set only in workers.
_worker_task = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    """[fn(shared, item) for item in items], on up to `jobs` worker processes.

    The pool has no more workers than items or usable CPUs, and is used only
    when that is more than one worker and the job holds at least
    SERIAL_BELOW_CELLS cells (len(items) * cells_per_item). An exception
    raised by `fn` propagates from the first item, in item order, that
    raised it; items not yet started are cancelled.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    if workers <= 1 or len(items) * cells_per_item < SERIAL_BELOW_CELLS:
        return [fn(shared, item) for item in items]
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
        initializer=_start_worker, initargs=(fn, shared),
    )
    try:
        # The executor spawns its workers inside submit().
        with _single_threaded_blas():
            futures = [pool.submit(_run_item, item) for item in items]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
