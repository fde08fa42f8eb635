"""Importing the package and its CLI stays clear of scipy.integrate.

Loading `scipy.integrate` cost about 0.3 s of every CLI start.
`surface_energy.taylor_split` integrates its remainder with Gauss-Legendre
rules of its own, so not even a Taylor split loads it.
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


def test_taylor_split_does_not_load_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(slabflow.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, numpy as np, slabflow\n"
            "z = slabflow.Jet(np.array([0.4, -0.3]), np.eye(2))\n"
            "for k in (0, 1, 2):\n"
            "    slabflow.taylor_split(slabflow.willmore(), k, z)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
