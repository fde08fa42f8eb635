"""Importing the package and its CLI stays clear of scipy.integrate.

`scipy.integrate` is used only by `surface_energy.taylor_split`, which
imports it on first call; loading it at import time cost about 0.3 s of
every CLI start.
"""

import os
import subprocess
import sys

import slabflow


def test_import_does_not_load_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(slabflow.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, slabflow, slabflow.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
