"""`python -m doublelasso` and the installed `doublelasso` command.

Both start here so that the environment is set before numpy loads: the
process's BLAS builds no thread pool beyond the one thread every fit runs
on (see `parallel`), and forked `--jobs` workers inherit the setting. An
explicit `OPENBLAS_NUM_THREADS` in the caller's environment is kept.

A command's process also runs without cyclic garbage collection. `main`
turns the collector off before it imports the rest of the package, and
freezes every object left at the end, so that the collection the
interpreter runs at shutdown skips what numpy, scipy and the package built
(~44k live objects after a demo `fit`), which the OS frees anyway. Beyond
the garbage their imports leave, a whole `fit` or `simulate` leaves only
the argument parser, a few hundred objects, as cyclic garbage, so the
collector would have little to reclaim while the command runs. The policy
belongs to the process, so it lives here and nowhere else: `import
doublelasso`, `cli.main` called from Python and every library call leave
the interpreter's collector as they find it.
"""

import gc
import os
import sys


def main(argv=None) -> int:
    # Measured on a demo `fit` (2-core host, CPython 3.11): start-up ran ~97
    # automatic collections for 27-35 ms of CPU, and freezing cut the time
    # from main returning to the process ending from 103 ms to about 20 ms.
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    try:
        return cli.main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
