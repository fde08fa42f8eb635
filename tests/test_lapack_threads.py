"""scipy's bundled OpenBLAS runs LAPACK on the calling thread after slabflow's first call.

numpy and scipy wheels each bundle their own OpenBLAS with its own thread pool.
`stability._scipy_linalg` sets scipy's pool to one thread the first time a solve,
factorization or residual product needs `scipy.linalg`, and leaves numpy's pool as
it is.  Each check runs in a child process, so it sees a fresh pool, with
`OPENBLAS_NUM_THREADS` removed from the child's environment: the pools start at
their default size whatever the test run itself was given.
"""

import json
import os
import subprocess
import sys

import slabflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(slabflow.__file__)))

# reads the thread count of each bundled OpenBLAS copy through ctypes, without
# importing scipy.linalg
POOLS = """
import ctypes, glob, importlib.util, os
def pools():
    out = {}
    for pkg, symbol in (("numpy", "scipy_openblas_get_num_threads64_"),
                        ("scipy", "scipy_openblas_get_num_threads")):
        where = os.path.dirname(importlib.util.find_spec(pkg).submodule_search_locations[0])
        lib = ctypes.CDLL(glob.glob(os.path.join(where, pkg + ".libs", "libscipy_openblas*.so"))[0])
        out[pkg] = getattr(lib, symbol)()
    return out
"""


def _child(*args: str, threads: str | None = None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout


def test_first_solve_pins_scipy_pool_only():
    code = POOLS + (
        "import json, slabflow.densities as dn, slabflow.stability as st\n"
        "before = pools()\n"
        "op = st.assemble_mode((1, 0), 1.0, st.mode_sigma(dn.willmore(), 0.0, (1, 0), 2), 8)\n"
        "st.solve_spectrum(op)\n"
        "print(json.dumps({'before': before, 'after': pools(), 'pinned': st._pinned}))\n")
    seen = json.loads(_child("-c", code).splitlines()[-1])
    assert seen["pinned"] is True
    # both copies start at the default size of this environment
    assert seen["before"]["scipy"] == seen["before"]["numpy"] >= 1
    assert seen["after"] == {"numpy": seen["before"]["numpy"], "scipy": 1}


def test_ellipticity_neither_loads_scipy_linalg_nor_pins(tmp_path):
    cfg = os.path.join(os.path.dirname(SRC), "configs", "area_waves.json")
    code = POOLS + (
        "import json, sys, slabflow.cli, slabflow.stability as st\n"
        f"code = slabflow.cli.main(['--config', {cfg!r}, '--out', {str(tmp_path)!r}, 'ellipticity'])\n"
        "loaded = 'scipy.linalg' in sys.modules\n"
        "print(json.dumps({'code': code, 'loaded': loaded, 'pinned': st._pinned,\n"
        "                  'pools': pools()}))\n")
    seen = json.loads(_child("-c", code).splitlines()[-1])
    assert (seen["code"], seen["loaded"], seen["pinned"]) == (0, False, None)
    assert seen["pools"]["scipy"] == seen["pools"]["numpy"]


def test_validate_stdout_does_not_depend_on_blas_threads():
    default = _child("-m", "slabflow.cli", "validate")
    assert "resolvent_eigen_identity" in default
    assert _child("-m", "slabflow.cli", "validate", threads="1") == default
