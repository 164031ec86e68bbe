"""Running CLI ops, timing them, and the arithmetic the metrics rest on.

An op result carries its wall time, the child CPU it used, the exit status
and the bytes the op produced (its --out file when it writes one, else its
standard output). Results are kept in memory and checked after the timed
phase, so checking never sits inside a timed interval.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# A child that runs longer than this is killed and its op counts as failed,
# so a hung program cannot hold the benchmark past its own time limit.
OP_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    `key` names the inputs and settings that determine the output bytes:
    two results with the same key must be byte-identical, whatever the job
    count or the process they ran in. `units` is how many ops of the
    workload the invocation performs (replications for a study call).
    """

    key: str
    argv: tuple[str, ...]
    units: int = 1
    out: str | None = None


@dataclass
class OpResult:
    op: Op
    wall_s: float
    cpu_s: float
    returncode: int
    output: bytes
    stderr: bytes = b""
    in_process: bool = False
    failed_units: int = 0
    problems: list[str] = field(default_factory=list)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def throughput(units: int, seconds: float) -> float:
    """Units completed per second of elapsed time."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return units / seconds


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def with_jobs(argv, jobs: int) -> tuple[str, ...]:
    """The same invocation with its --jobs value replaced."""
    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return tuple(argv)


def _read_output(op: Op, workdir: str, stdout: bytes) -> bytes:
    if op.out is None:
        return stdout
    path = os.path.join(workdir, op.out)
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


class CliRunner:
    """Runs `python -m doublelasso` from the checkout's source tree.

    `python -m doublelasso` is the same entry point as the installed
    `doublelasso` console script (both call doublelasso.cli.main). Every
    child runs with the work directory as its current directory, so paths
    the CLI echoes are the same on every run.
    """

    def __init__(self, src_dir: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src_dir + (os.pathsep + old if old else "")

    def run_python(self, argv) -> tuple[float, float, int, bytes, bytes]:
        """Run the interpreter with `argv`; returns wall, child CPU, status, out, err."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, capture_output=True, timeout=OP_TIMEOUT_S,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = -9, exc.stdout or b"", b"timed out"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return wall, cpu, code, out, err

    def run(self, op: Op) -> OpResult:
        if op.out is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, op.out))
        wall, cpu, code, out, err = self.run_python(["-m", "doublelasso", *op.argv])
        return OpResult(op=op, wall_s=wall, cpu_s=cpu, returncode=code,
                        output=_read_output(op, self.workdir, out), stderr=err)

    def peak_rss_mb(self) -> float:
        """Largest resident set of any child reaped so far (Linux reports KiB)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_in_process(main, op: Op, workdir: str, argv=None) -> OpResult:
    """Call doublelasso.cli.main(argv) in this process, capturing its output."""
    argv = list(op.argv if argv is None else argv)
    if op.out is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, op.out))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    cpu0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op fails; the benchmark records why
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        os.chdir(cwd)
    stdout = out.getvalue().encode("utf-8")
    return OpResult(op=op, wall_s=wall, cpu_s=cpu, returncode=int(code),
                    output=_read_output(op, workdir, stdout),
                    stderr=err.getvalue().encode("utf-8"), in_process=True)


def closed_loop(rounds, execute, seconds: float) -> tuple[list[OpResult], float]:
    """Run whole rounds back to back until `seconds` have elapsed.

    One caller, and the next op starts only after the previous one ends.
    Rounds are never cut, so every run holds the same mix of ops. Returns
    the results and the elapsed wall time.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        for op in next(rounds):
            results.append(execute(op))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return results, elapsed


# ---------------------------------------------------------------------------
# Environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy) -> str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libdir = os.path.dirname(numpy.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def source_digest(src_dir: str) -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "doublelasso", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root: str, src_dir: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_digest": source_digest(src_dir),
        "workload": workload,
        "seed": seed,
    }


def dump_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
