"""The four benchmark workloads, driven through slabflow's public API.

Each workload has `setup()` (inputs handed to the program, operator
assembly, eigen-seeding, first factorizations), `run_pass(mark)` (the
timed work; `mark(i)` is called before each benchmark call into the
program), `check(outputs)` (gates on the outputs of one pass, returning
the set of failed op labels) and `final_check()` (gates run once after
timing, returning op labels that failed in every pass).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

from slabflow import cli, profiles
from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid
from slabflow.geometry import FlattenedDomain

from . import gates
from . import inputs as inp

RECORD_INTERVAL = 10      # trajectory: a record every 10 steps
TRAJECTORY_RECORDS = 5    # records per pass after the initial one
STEPPING_STEPS = 200      # stepping: steps per pass, records only at both ends
FD_EPS = 1e-4

# The figure_forces window: length 20, blend width 2, 1024 samples,
# alpha = beta = 1, displacement 0.02.
FORCE_WINDOW = (20.0, 1024, 2.0)
FORCE_ARGS = (1.0, 1.0, 0.02)


def surface_families():
    """The five density families of the acceptance suite."""
    return [dn.area(1.0), dn.willmore(), dn.scalar_willmore(1.0, 0.7),
            dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]]), dn.combo(-1.0, 0.5)]


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


class _Eigenmodes:
    """Shared by `trajectory` and `stepping`: an eigenmode superposition
    of the combo_stable physics, stepped by Crank-Nicolson."""

    def __init__(self, amplitudes: dict, reference: dict):
        self.amplitudes = amplitudes
        self.reference = reference["modes"]
        self.grid = {"n": 2, "N": inp.GRID_N, "M_v": inp.M_V, "modes": len(amplitudes)}

    def setup(self):
        dom = FlattenedDomain(b=inp.DEPTH, horizontal=TorusGrid(2, inp.GRID_N), M_v=inp.M_V)
        self.sim = sim.Simulator(dn.combo(inp.ALPHA, inp.BETA), inp.GRAVITY, dom)
        modes = {}
        for k, a in self.amplitudes.items():
            seeded = self.sim.eigenmode_data(k, abs(a))
            modes[k] = seeded.modes[k] * (a / abs(a))
        self.state = sim.FlattenedState(dom, modes, 0.0)
        self.sim.step(self.state, inp.DT)   # factorizes every mode's stepper

    def _run(self, steps: int, interval: int):
        settings = sim.SimulationSettings(dt=inp.DT, horizon=steps * inp.DT,
                                          output_interval=interval)
        return self.sim.run(self.state, settings)

    def _record_failures(self, trace) -> list[int]:
        failed = []
        for i, t in enumerate(trace.t):
            steps = int(round(t / inp.DT))
            rec = {name: getattr(trace, name)[i] for name in gates.FUNCTIONALS}
            pred = gates.predicted_functionals(self.reference, self.amplitudes, steps, inp.DT)
            if gates.record_problems(rec, pred, trace.mass[i], trace.mass[0]):
                failed.append(i)
        return failed

    def final_check(self) -> set:
        return set()


class Trajectory(_Eigenmodes):
    name = "trajectory"
    ops_per_pass = TRAJECTORY_RECORDS + 1

    def __init__(self, seed, reference, outdir):
        super().__init__(inp.trajectory_amplitudes(seed), reference)

    def run_pass(self, mark):
        mark(0)
        trace, _ = self._run(RECORD_INTERVAL * TRAJECTORY_RECORDS, RECORD_INTERVAL)
        return trace

    def check(self, trace) -> set:
        failed = set(self._record_failures(trace))
        failed |= set(range(len(trace.t), self.ops_per_pass))  # missing records
        return failed


class Stepping(_Eigenmodes):
    name = "stepping"
    ops_per_pass = STEPPING_STEPS

    def __init__(self, seed, reference, outdir):
        super().__init__(inp.stepping_amplitudes(seed), reference)

    def run_pass(self, mark):
        mark(0)
        trace, _ = self._run(STEPPING_STEPS, STEPPING_STEPS)
        return trace

    def check(self, trace) -> set:
        ok = (len(trace.t) == 2 and not self._record_failures(trace)
              and len(trace.ed_residual) == STEPPING_STEPS
              and bool(np.all(np.isfinite(trace.ed_residual))))
        return set() if ok else set(range(STEPPING_STEPS))


class Spectrum:
    name = "spectrum"

    def __init__(self, seed, reference, outdir):
        self.seed = seed
        self.outdir = os.path.join(outdir, f"spectrum-{seed}")
        self.reference = {tuple(r[:2]): tuple(r[2:]) for r in reference["dispersion"]}
        self.rows = {}
        self.ops_per_pass = len(self.reference)
        self.grid = {"n": 2, "N": inp.GRID_N, "M_v": inp.M_V, "kmax": inp.SPECTRUM_KMAX,
                     "rows": self.ops_per_pass}

    def setup(self):
        os.makedirs(self.outdir, exist_ok=True)
        self.config = os.path.join(self.outdir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(inp.spectrum_config(self.seed), fh)
        self.argv = ["--config", self.config, "--out", self.outdir, "--threads", "1",
                     "dispersion"]

    def run_pass(self, mark):
        mark(0)
        return _quiet(cli.main, self.argv)

    def read_rows(self) -> dict:
        with open(os.path.join(self.outdir, "dispersion.csv"), encoding="utf-8") as fh:
            return {(int(float(r["kx"])), int(float(r["ky"]))):
                    (float(r["lambda_min"]), float(r["re_lambda_2"]), float(r["im_lambda_2"]))
                    for r in csv.DictReader(fh)}

    def check(self, exit_code) -> set:
        if exit_code != 0:
            return set(self.reference)
        self.rows = self.read_rows()
        return gates.dispersion_failures(self.rows, self.reference)

    def final_check(self) -> set:
        """Re-verify the kept eigenpairs of a seeded sample of rows."""
        density = dn.combo(inp.ALPHA, inp.BETA)
        failed = set()
        for k in inp.spectrum_check_rows(self.seed):
            sigma = se.hessian_symbol(density, inp.GRAVITY, k, n=2)
            op = st.assemble_mode(k, inp.DEPTH, sigma, inp.M_V)
            spec = st.solve_spectrum(op)
            resid = gates.max_eigpair_residual(op.L, op.B, spec.eigenvalues, spec.eigenvectors)
            row = self.rows.get(k)
            if (resid > st.RESIDUAL_FILTER or row is None
                    or abs(spec.lambda_min - row[0]) > 1e-10 * abs(row[0])):
                failed.add(k)
        return failed


class Surface:
    name = "surface"

    def __init__(self, seed, reference, outdir):
        self.seed = seed
        self.reference = reference
        self.families = surface_families()
        self.ops_per_pass = len(self.families) + 1     # one op per family, one force op
        self.grid = {"n": 2, "N": inp.GRID_N, "families": len(self.families),
                     "force_samples": FORCE_WINDOW[1]}
        self.pass_index = 0

    def _fields(self, seed):
        grid = TorusGrid(2, inp.GRID_N)
        return [tuple(SpectralField(grid, c) for c in t) for t in inp.surface_triples(seed)]

    def setup(self):
        self.triples = self._fields(self.seed)
        self.window = profiles.LineWindow(*FORCE_WINDOW)

    @staticmethod
    def evaluate(f, eta, phi, psi) -> dict:
        """One surface op: the four variation calls and their finite differences."""
        W = se.energy(f, eta)
        dW = se.first_variation(f, eta).coeffs
        d2 = se.second_variation_apply(f, eta, phi).coeffs
        d3 = se.third_variation_apply(f, eta, phi, psi).coeffs
        e = FD_EPS
        fd1 = (se.energy(f, eta + e * phi) - se.energy(f, eta - e * phi)) / (2 * e)
        fd2 = (se.energy(f, eta + e * (phi + psi)) - se.energy(f, eta + e * (phi - psi))
               - se.energy(f, eta - e * (phi - psi)) + se.energy(f, eta - e * (phi + psi))
               ) / (4 * e * e)
        fd3 = (gates.inner(se.second_variation_apply(f, eta + e * psi, phi).coeffs, psi.coeffs)
               - gates.inner(se.second_variation_apply(f, eta - e * psi, phi).coeffs, psi.coeffs)
               ) / (2 * e)
        p, q = phi.coeffs, psi.coeffs
        return {
            "energy": W,
            "pair1": gates.inner(dW, p), "fd1": fd1, "scale1": gates.norm(dW) * gates.norm(p),
            "pair2": gates.inner(d2, q), "fd2": fd2, "scale2": gates.norm(d2) * gates.norm(q),
            "pair3": gates.inner(d3, q), "fd3": fd3, "scale3": gates.norm(d3) * gates.norm(q),
        }

    def run_pass(self, mark):
        out = []
        for i, f in enumerate(self.families):
            mark(i)
            eta, phi, psi = self.triples[(self.pass_index + i) % len(self.triples)]
            out.append(self.evaluate(f, eta, phi, psi))
        mark(len(self.families))
        forces = tuple(profiles.force_columns(self.window, shape, *FORCE_ARGS)
                       for shape in ("gaussian", "tanh"))
        self.pass_index += 1
        return out, forces

    @staticmethod
    def mismatches(v: dict) -> list[float]:
        return [gates.relative_mismatch(v[f"fd{j}"], v[f"pair{j}"], v[f"scale{j}"])
                for j in (1, 2, 3)]

    def check(self, outputs) -> set:
        values, (gaussian, tanh) = outputs
        failed = {i for i, v in enumerate(values)
                  if not np.isfinite(v["energy"]) or max(self.mismatches(v)) > gates.FD_TOL}
        if gates.force_problems(gaussian, tanh, self.reference["forces"]):
            failed.add(len(self.families))
        return failed

    def anchor_values(self) -> dict:
        eta, phi, psi = self._fields(inp.ANCHOR_SEED)[0]
        out = {}
        for f in self.families:
            v = self.evaluate(f, eta, phi, psi)
            for name in ("energy", "pair1", "pair2", "pair3"):
                out[f"{f.name}.{name}"] = v[name]
        return out

    def final_check(self) -> set:
        """Recorded values at fixed anchor inputs, one family at a time."""
        values = self.anchor_values()
        failed = set()
        for i, f in enumerate(self.families):
            ref = {k: v for k, v in self.reference["surface_anchor"].items()
                   if k.startswith(f.name + ".")}
            if not ref or gates.anchor_problems(values, ref):
                failed.add(i)
        return failed


WORKLOADS = {w.name: w for w in (Trajectory, Stepping, Spectrum, Surface)}
