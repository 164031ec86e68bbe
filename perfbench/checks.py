"""Output checks. Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import math
import re

import harness

# Tail probability for the coverage band. A correct estimator falls outside
# the band this rarely, so the check flags a broken interval, not bad luck,
# across the hundreds of runs that comparing two commits takes.
COVERAGE_TAIL = 1e-6


def same_bytes(actual: bytes, expected: bytes, what: str) -> list[str]:
    if actual == expected:
        return []
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
              min(len(actual), len(expected)))
    return [f"{what}: output differs from the expected bytes at offset {at}"]


def matches_digest(output: bytes, expected: str | None, what: str) -> list[str]:
    if expected is None or harness.digest(output) == expected:
        return []
    return [f"{what}: output digest differs from the reference digest"]


def consistent_by_key(results) -> list[tuple[object, str]]:
    """Results that share a key must be byte-identical (repeats, job counts).

    Returns each result that differs from the first successful one with its
    key, with the problem found.
    """
    first: dict[str, bytes] = {}
    problems = []
    for r in results:
        if r.returncode != 0:
            continue
        seen = first.setdefault(r.op.key, r.output)
        if seen != r.output:
            how = "in process, --jobs 1" if r.in_process else " ".join(r.op.argv)
            problems.append((r, f"{r.op.key}: output differs between runs of the same "
                                f"inputs ({how})"))
    return problems


_FLOAT = re.compile(r"^-?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")


def fit_table(output: bytes, expected_rows: int) -> list[str]:
    """Check a `fit --format tsv` report.

    Every estimate row must carry finite numbers with the interval around
    the coefficient, and no treatment may have failed (a `# failed:` line is
    one FitFailure row).
    """
    lines = output.decode("utf-8", errors="replace").splitlines()
    if not lines or not lines[0].startswith("Treatment\tCoefficient"):
        return ["fit report has no header"]
    rows = [ln.split("\t") for ln in lines[1:] if ln and not ln.startswith("#")]
    failures = sum(1 for ln in lines if ln.startswith("# failed:"))
    problems = [f"fit report has {failures} FitFailure rows"] if failures else []
    for cells in rows:
        nums = cells[1:6]
        if len(cells) != 9 or not all(_FLOAT.match(c) for c in nums):
            problems.append(f"fit report row is malformed: {cells!r}")
            continue
        coef, p, lo, hi, se = (float(c) for c in nums)
        if not (lo <= coef <= hi and 0.0 <= p <= 1.0 and se >= 0.0):
            problems.append(f"fit report row is inconsistent: {cells!r}")
    if len(rows) + failures != expected_rows:
        problems.append(f"fit report has {len(rows) + failures} treatments, expected {expected_rows}")
    return problems


def binomial_band(n: int, p: float, tail: float = COVERAGE_TAIL) -> tuple[int, int]:
    """Smallest and largest counts k with P(X <= k) and P(X >= k) above `tail`.

    X is Binomial(n, p). A count outside [lo, hi] is that unlikely under p.
    """
    pmf = [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def coverage_in_band(covered: int, n: int, level: float, what: str) -> list[str]:
    if n == 0:
        return [f"{what}: no successful replications"]
    lo, hi = binomial_band(n, 1.0 - level)
    if lo <= covered <= hi:
        return []
    return [f"{what}: {covered}/{n} intervals cover, outside the band [{lo}, {hi}] "
            f"around {1.0 - level:g}"]


def naive_below_dml(naive: tuple[int, int], dml: tuple[int, int], what: str) -> list[str]:
    """Each argument is (intervals covering, successful replications)."""
    if naive[1] and dml[1] and naive[0] / naive[1] < dml[0] / dml[1]:
        return []
    return [f"{what}: naive coverage {naive[0]}/{naive[1]} is not below dml coverage "
            f"{dml[0]}/{dml[1]}"]
