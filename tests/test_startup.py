"""Importing the package and its CLI stays clear of scipy.integrate and scipy.linalg.

Loading `scipy.integrate` cost about 0.3 s of every CLI start.
`surface_energy.taylor_split` integrates its remainder with Gauss-Legendre
rules of its own, so not even a Taylor split loads it.  `scipy.linalg` cost
about 0.3 s more; only the linearized flow calls it, so the surface-energy
subcommands never load it, and the flow subcommands load it at their first
solve or factorization.
"""

import json
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


def test_only_the_flow_subcommands_load_scipy_linalg(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(slabflow.__file__)))
    configs = os.path.join(os.path.dirname(src), "configs")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    runs = [("area_waves", "ellipticity"), ("area_waves", "variations"),
            ("area_waves", "geometry-check"), ("figure_forces", "figure-forces"),
            ("willmore_decay", "dispersion")]
    code = ("import json, sys, slabflow, slabflow.cli\n"
            "seen = {'import': sorted(m for m in sys.modules if m.startswith('scipy'))}\n"
            f"for cfg, cmd in {runs!r}:\n"
            f"    code = slabflow.cli.main(['--config', {configs!r} + '/' + cfg + '.json',\n"
            f"                              '--out', {str(tmp_path)!r} + '/' + cmd, cmd])\n"
            "    seen[cmd] = [code, 'scipy.linalg' in sys.modules]\n"
            "print(json.dumps(seen))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    # each subcommand's exit code and whether scipy.linalg is loaded after it
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": [], "ellipticity": [0, False], "variations": [0, False],
        "geometry-check": [0, False], "figure-forces": [0, False], "dispersion": [0, True]}
