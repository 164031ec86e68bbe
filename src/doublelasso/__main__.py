"""`python -m doublelasso` and the installed `doublelasso` command.

Both start here so that the environment is set before numpy loads: the
process's BLAS builds no thread pool beyond the one thread every fit runs
on (see `parallel`), and forked `--jobs` workers inherit the setting. An
explicit `OPENBLAS_NUM_THREADS` in the caller's environment is kept.

A command's process also runs without cyclic garbage collection. `main`
turns the collector off before it imports the rest of the package, and
freezes every object left at the end, so that the collection the
interpreter runs at shutdown skips what numpy, scipy and the package built
(~58k tracked objects after a demo `fit`), which the OS frees anyway.
Beyond the garbage their imports leave, a whole `fit` or `simulate` leaves
only the argument parser, a few hundred objects, as cyclic garbage, so the
collector would have little to reclaim while the command runs.

A command's process also defers the numpy modules that nothing it runs
uses. scipy's array-API shim clones the numpy namespace with `from numpy
import *`, which executes every submodule numpy otherwise loads on first
use: `numpy.f2py`, `numpy.testing`, `numpy.polynomial`, `numpy.ctypeslib`
and `numpy.ma` among them, with `unittest`, `email`, `charset_normalizer`
and more behind them. `main` puts a one-shot finder on `sys.meta_path`
that, on the first `import scipy`, removes itself and installs those five
as `importlib.util.LazyLoader` modules. Each one runs in full on its first
attribute access, so whoever uses one sees no change. Measured on a 2-core
host (CPython 3.11, numpy 2.4, scipy 1.17) with the same stdout, a demo
`fit` loads 411 modules instead of 598 and peaks at about 55.4 MB of RSS
instead of 66 MB (56.5 MB with `numpy.ma` eager, medians of 7 runs). A fit
never reads `numpy.ma`: `glm.binary_outcome` compares instead of calling
`np.unique`, which calls `np.ma.is_masked`. `simulate` runs it only in
`summarize` (`np.median`), after its fits. `numpy.random` stays eager:
`scipy._lib._util` evaluates `np.random.Generator | np.random.RandomState`
at import. So does `secrets`, which with `hmac` and libcrypto is about
3.7 MB of `numpy.random`'s ~6.1 MB: `numpy.random` imports it, and
`secrets` and `hmac` read attributes of what they import. `--version`
loads no numpy and `encode` no scipy, so neither fires the finder.

This policy belongs to the process, so it lives here and nowhere else:
`import doublelasso`, `cli.main` called from Python and every library call
leave the interpreter's collector, `sys.meta_path` and numpy's modules as
they find them.
"""

import gc
import os
import sys

# numpy submodules that `from numpy import *` executes and that no fit uses.
_DEFERRED = ("numpy.f2py", "numpy.testing", "numpy.polynomial", "numpy.ctypeslib", "numpy.ma")


class _DeferNumpyExtras:
    """Install `_DEFERRED` as lazy modules when scipy is first imported."""

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "scipy":
            return None
        # A new list: the import system is iterating the current one.
        sys.meta_path = [finder for finder in sys.meta_path if finder is not self]
        import importlib.util

        import numpy

        for name in _DEFERRED:
            if name in sys.modules:
                continue
            spec = importlib.util.find_spec(name)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            # Without the attribute, numpy's module `__getattr__` imports the
            # name again, and the import system's `__spec__` check runs the
            # module at once.
            setattr(numpy, name.rpartition(".")[2], module)
        return None


def main(argv=None) -> int:
    # Measured on a demo `fit` (2-core host, CPython 3.11): start-up ran ~97
    # automatic collections for 27-35 ms of CPU, and freezing cut the time
    # from main returning to the process ending from 103 ms to about 20 ms.
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if "scipy" not in sys.modules and not any(
            isinstance(finder, _DeferNumpyExtras) for finder in sys.meta_path):
        sys.meta_path.insert(0, _DeferNumpyExtras())
    from . import cli

    try:
        return cli.main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
