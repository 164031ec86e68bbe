"""Check that the CLI's outputs still match perfbench/digests.json, bit for bit.

Usage, from anywhere:

    python3 tools/check_digests.py

Copies the checkout's src/, perfbench/ and demo/ to a temporary directory,
runs perfbench/record_digests.py there, and compares the digests.json it
writes with the checkout's byte for byte. Exits 0 when they are identical;
on a mismatch exits 1 and names each digest that differs; exits 2 when the
recording itself fails. The checkout is only read.

The digests were recorded on one machine's BLAS kernels, so a different
CPU or BLAS build may change low-order bits and fail this check with no
change to the code.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "perfbench", "demo")
DIGESTS = os.path.join("perfbench", "digests.json")


def _differences(want: dict, got: dict) -> list[str]:
    """One line per workload op whose digest is missing, new or changed."""
    lines = []
    for name in sorted(set(want) | set(got)):
        a, b = want.get(name, {}), got.get(name, {})
        for key in sorted(set(a) | set(b)):
            if key not in b:
                lines.append(f"{name}: {key}: not recorded")
            elif key not in a:
                lines.append(f"{name}: {key}: recorded, not in the checkout")
            elif a[key] != b[key]:
                lines.append(f"{name}: {key}: differs")
    return lines


def main() -> int:
    with open(os.path.join(ROOT, DIGESTS), "rb") as fh:
        want = fh.read()
    with tempfile.TemporaryDirectory(prefix="check-digests-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".bench_work")
        for name in COPIED:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=ignore)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "record_digests.py")],
                              cwd=tmp, env=env)
        if proc.returncode != 0:
            print(f"error: record_digests.py exited with status {proc.returncode}",
                  file=sys.stderr)
            return 2
        with open(os.path.join(tmp, DIGESTS), "rb") as fh:
            got = fh.read()
    total = sum(len(ops) for ops in json.loads(want).values())
    if got == want:
        print(f"all {total} digests identical")
        return 0
    lines = _differences(json.loads(want), json.loads(got)) or ["same digests, other bytes"]
    for line in lines:
        print(line)
    print(f"{len(lines)} of {total} digests differ from {DIGESTS}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
