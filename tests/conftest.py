import json
import os
import pathlib
import subprocess
import sys

import pytest

import xapprox

_DATA = pathlib.Path(__file__).parent / "data" / "reference_values.json"

# the source tree the tests import, so a fresh process runs the same code
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(xapprox.__file__)))

# `python -c _NO_SCIPY <args>` runs <args> (`-c code`, `-m module ...` or
# `script.py ...`) behind a finder that refuses every scipy module, and
# fails if any scipy module is loaded when the target ends, however it ends
_NO_SCIPY = r"""
import runpy, sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, _NoScipy())
del sys.argv[0]
try:
    if sys.argv[0] == "-c":
        exec(sys.argv.pop(1), {"__name__": "__main__"})
    elif sys.argv[0] == "-m":
        del sys.argv[0]
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    if loaded:
        sys.exit(f"scipy modules loaded: {loaded}")
"""


@pytest.fixture(scope="session")
def ref():
    """High-precision reference values (frozen output of
    tools/gen_reference_values.py)."""
    with open(_DATA) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def fresh_python():
    """Run `python <args>` in a fresh process on the tested source tree,
    with RuntimeWarning and UserWarning as errors (pytest's own session may
    have scipy or a module's caches loaded already).

    no_scipy: refuse every scipy module and fail if one is loaded.
    blas_threads: the OpenBLAS / OpenMP thread count.
    check: assert that the process exits 0.
    cwd: the working directory (the caller's by default).
    Returns the subprocess.CompletedProcess, its output as text."""
    def run(*args, no_scipy=False, blas_threads=None, check=True, cwd=None):
        env = dict(os.environ, PYTHONPATH=_SRC)
        if blas_threads is not None:
            env.update(OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
        if no_scipy:
            args = ("-c", _NO_SCIPY, *args)
        res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                              "-W", "error::UserWarning", *args],
                             env=env, cwd=cwd, capture_output=True, text=True, timeout=300)
        if check:
            assert res.returncode == 0, res.stderr[-2000:]
        return res
    return run
