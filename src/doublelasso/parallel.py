"""The one way the package runs independent work on several cores.

`parallel_map(fn, items, jobs, cells_per_item=...)` returns
`[fn(item) for item in items]`, in item order. Large jobs run on the
calling process plus a pool of `jobs - 1` forked worker processes; small
ones, and every job with `jobs == 1` or a single item, run in the calling
process alone. A caller binds the inputs its items share into `fn` with
`functools.partial` or a closure.

Workers are forked: they start in tens of milliseconds and inherit `fn`,
its bound inputs, the items and the imported package instead of importing
or unpickling them; only results cross back, by pickle. Fork copies only the
calling thread, so the pool forks only on Linux and only when no other
Python thread is alive; elsewhere, including a call from a non-main
thread, the job runs serially in the calling process. A forked worker also
inherits the caller's garbage-collector state (off in a CLI process, see
`doublelasso.__main__`) and ends through `os._exit`, as every forked
multiprocessing child does, so it runs no collection at exit.

The caller and the workers claim item indices in order from one shared
counter under a lock, a worker its first before it forks and each next one
when its last is done, so no item waits behind a busy worker. Each worker
sends its outcomes through its own one-way pipe once nothing is left to
claim, and the caller rebuilds the results in item order. Each item runs
once, a failure ends all claims, and the first failure in item order is
raised; an item whose worker died raises BrokenProcessPool. A caller that
leaves early (on KeyboardInterrupt, say) terminates every worker it has
not read, since one blocked sending a large result would never end. No
thread starts, and `multiprocessing` is imported only when a job forks.

Every process fits on one BLAS thread. At these problem sizes a BLAS
thread pool buys no wall time and burns CPU spinning, and in a pool it
would spin against the other workers. The command-line entry point
(`doublelasso.__main__`) sets `OPENBLAS_NUM_THREADS=1`, unless it is already
set, before numpy loads, so a CLI process never builds a thread pool. For
library use, numpy and scipy each bundle their own OpenBLAS; the caller
holds both to one thread through their thread-control functions while `fn`
runs, and restores the previous counts afterwards. It finds numpy's in
numpy's core extension module and scipy's in scipy's BLAS wrapper module,
which it loads on its own (see `glm._compiled_module`), so a fit's process
never imports the `scipy.linalg` package for it. The pool forks inside
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
import os
import sys
import threading

# parallel_map reads the cutoff from this module, so a test may set it here.
from .config import SERIAL_BELOW_CELLS

# Extension module and symbol suffix of each bundled OpenBLAS's thread
# control: numpy links a 64-bit-integer build, scipy a 32-bit one.
_BUNDLED_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._fblas", ""))


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
    from .glm import _compiled_module  # here, so that importing this module loads no numpy

    controls = {}
    for module, suffix in _BUNDLED_OPENBLAS:
        try:
            lib = ctypes.CDLL(_compiled_module(module).__file__)
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


def parallel_map(fn, items, jobs: int, *, cells_per_item: int) -> list:
    """[fn(item) for item in items], on up to `jobs` processes.

    The calling process is one of them and a pool of forked workers holds
    the others. The pool is used only when more than one process would work
    (jobs, items and usable CPUs all above one), the job holds at least
    SERIAL_BELOW_CELLS cells (len(items) * cells_per_item), and forking is
    safe: on Linux, with no other Python thread alive. An exception
    raised by `fn` propagates from the first item, in item order, that
    raised it; no item is claimed after a failure.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    with _caller_blas_on_one_thread():
        if (workers <= 1 or len(items) * cells_per_item < SERIAL_BELOW_CELLS
                or not sys.platform.startswith("linux") or threading.active_count() > 1):
            return [fn(item) for item in items]
        return _pooled_map(fn, items, workers)


def _pooled_map(fn, items, workers: int) -> list:
    import multiprocessing  # here, so that a process whose jobs stay serial never loads it

    ctx = multiprocessing.get_context("fork")
    cursor = ctx.Value("q", 0)
    outcomes: dict = {}  # item index -> (raised, result or exception)

    def claim(stop=False):
        """The next unclaimed item's index, or None; `stop` ends every claim."""
        with cursor.get_lock():
            k = cursor.value
            cursor.value = len(items) if stop else min(k + 1, len(items))
        return None if stop or k == len(items) else k

    def run(k):
        """Run item k and every item this process claims after it."""
        while k is not None:
            try:
                outcomes[k] = (False, fn(items[k]))
                k = claim()
            except Exception as exc:  # raised in item order below
                outcomes[k] = (True, exc)
                k = claim(stop=True)

    def work(k, conn):
        run(k)
        try:
            conn.send(outcomes)
        except Exception as exc:  # a result that does not pickle fails this worker's items
            conn.send(dict.fromkeys(outcomes, (True, exc)))

    pool = []  # (worker process, read end of its pipe)
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, args=(claim(), send))
            proc.start()
            send.close()  # so that the worker's death reads as end of file
            pool.append((proc, recv))
        run(claim())
        for _, recv in pool:
            with contextlib.suppress(EOFError, OSError):  # a worker that died sent nothing whole
                outcomes.update(recv.recv())
            recv.close()
        # Claims go in item order and stop only after a failure, so an item
        # missing before the first failure was in the hands of a dead worker.
        for k in range(len(items)):
            if k not in outcomes:
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool(f"the worker process that ran item {k} died")
            if outcomes[k][0]:
                raise outcomes.pop(k)[1]
        return [outcomes[k][1] for k in range(len(items))]
    finally:
        for proc, recv in pool:
            if not recv.closed:  # left early: its results will not be read
                proc.terminate()
                recv.close()
        for proc, _ in pool:
            proc.join()
        # A raised exception's traceback holds this frame; emptying the
        # table it sits in frees the job's state without a collection.
        outcomes.clear()
