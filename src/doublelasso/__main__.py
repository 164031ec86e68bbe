"""`python -m doublelasso` and the installed `doublelasso` command.

Both start here so that the environment is set before numpy loads: the
process's BLAS builds no thread pool beyond the one thread every fit runs
on (see `parallel`), and forked `--jobs` workers inherit the setting. An
explicit `OPENBLAS_NUM_THREADS` in the caller's environment is kept.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
