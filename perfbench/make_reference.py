"""Record the reference values the benchmark gates compare against.

    python3 perfbench/make_reference.py

writes perfbench/reference.json from the program as it is now.  Rerun it
only when a change to the program is meant to change these outputs, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import gates, inputs as inp, workloads  # noqa: E402
from slabflow import profiles, simulate as sim, stability as st  # noqa: E402
from slabflow import densities as dn  # noqa: E402
from slabflow.fourier import TorusGrid  # noqa: E402
from slabflow.geometry import FlattenedDomain  # noqa: E402


def unit_eigenmodes() -> dict:
    """Slowest rate and unit-amplitude functionals at every seedable wavevector."""
    dom = FlattenedDomain(b=inp.DEPTH, horizontal=TorusGrid(2, inp.GRID_N), M_v=inp.M_V)
    s = sim.Simulator(dn.combo(inp.ALPHA, inp.BETA), inp.GRAVITY, dom)
    out = {}
    for k in inp.representatives(inp.SEED_KMAX):
        lam = st.solve_spectrum(s.op(k)).eigenvalues[0]
        rec = s.functionals(s.eigenmode_data(k, 1.0))
        out[gates.key(k)] = {"lambda": [lam.real, lam.imag],
                             **{name: rec[name] for name in gates.MODAL}}
    return out


def dispersion_rows(outdir: str) -> list:
    spec = workloads.Spectrum(0, {"dispersion": []}, outdir)
    spec.setup()
    if spec.run_pass(lambda i: None) != 0:
        raise SystemExit("dispersion sweep failed")
    return [[kx, ky, *vals] for (kx, ky), vals in sorted(spec.read_rows().items())]


def forces() -> dict:
    win = profiles.LineWindow(*workloads.FORCE_WINDOW)
    return {shape: gates.force_samples(profiles.force_columns(win, shape, *workloads.FORCE_ARGS))
            for shape in ("gaussian", "tanh")}


def source_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    outdir = os.path.join(ROOT, "perfbench", "out", "reference")
    surface = workloads.Surface(0, {}, outdir)
    reference = {
        "recorded_from": source_commit(),
        "modes": unit_eigenmodes(),
        "dispersion": dispersion_rows(outdir),
        "forces": forces(),
        "surface_anchor": surface.anchor_values(),
    }
    with open(gates.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {gates.REFERENCE}")


if __name__ == "__main__":
    main()
