"""The benchmark's layer tracer still finds every entry point it wraps.

`perfbench/tracing.py` replaces named functions and methods of slabflow
from outside.  Installing it on the real package fails if one of those
names moved or was renamed, so a refactor breaks this test instead of a
later traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid, conjugacy_representatives
from slabflow.geometry import FlattenedDomain

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores(tracing):
    tracer = tracing.Tracer((RuntimeError, ValueError))
    wrapped = []
    try:
        tracing.wrap_slabflow(tracer)
        wrapped = list(tracer._undo)
        assert len({(id(owner), attr) for owner, attr, _ in wrapped}) == len(wrapped)
        for owner, attr, original in wrapped:
            assert current(owner, attr).__wrapped__ is original, attr

        grid = TorusGrid(2, 16)
        eta = SpectralField.from_modes(grid, {(1, 0): 0.01})
        se.energy(dn.area(1.0), eta)
        names = {span[0] for span in tracer.spans}
        assert {"surface_energy.energy", "surface_energy.jet_fields",
                "fourier.embed_truncate", "densities.value"} <= names
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert current(owner, attr) is original, attr
    assert not hasattr(se.energy, "__wrapped__")
    assert np.isfinite(se.energy(dn.area(1.0), eta))


def test_deferred_lapack_calls_are_traced(tracing):
    # stability and simulate import scipy.linalg inside the functions that call
    # LAPACK and look up eig and lu_factor on the module object, so the tracer's
    # wrappers there still see every eigensolve and stepper factorization.
    tracer = tracing.Tracer((RuntimeError, ValueError))
    try:
        tracing.wrap_slabflow(tracer)
        st.solve_spectrum(st.assemble_mode((1, 0), 1.0, 2.0, 8))
        dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 8), M_v=8)
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.init_pressure(s.admissible_data([sim.ModeSeed((1, 0), eta=1e-3)]))
        s.step(state, 1e-3)
        parents = {(span[0], tracer.parent_name(span)) for span in tracer.spans}
        assert ("stability.eig", "stability.solve_spectrum") in parents
        assert ("simulate.stepper_factor", "simulate.step") in parents
    finally:
        tracer.uninstall()


def test_eigenmode_seeds_solve_once_per_class(tracing):
    # the 40 `stepping` wavevectors hold 16 (octant member, sigma) classes, and
    # eigenmode_data solves through simulate's solve_spectrum, which the tracer wraps
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 32), M_v=24)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    tracer = tracing.Tracer((RuntimeError, ValueError))
    try:
        tracing.wrap_slabflow(tracer)
        for k in conjugacy_representatives(4, 2):
            s.eigenmode_data(k, 1e-4)
        assert tracer.sample_counts("simulate.init_state") == 40
        assert tracer.sample_counts("stability.solve_spectrum") == 16
        assert tracer.sample_counts("stability.assemble_mode") == 16
    finally:
        tracer.uninstall()


def test_first_step_factors_once_per_class(tracing):
    # the first step on the 40 `stepping` wavevectors factors one propagator per
    # (octant member, sigma) class, the 16 classes of the eigenmode seeds above
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 32), M_v=24)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    state = sim.FlattenedState(dom, {k: np.zeros(s.layout.dim, dtype=complex)
                                     for k in conjugacy_representatives(4, 2)})
    tracer = tracing.Tracer((RuntimeError, ValueError))
    try:
        tracing.wrap_slabflow(tracer)
        s.step(state, 1e-3)
        assert tracer.sample_counts("simulate.step") == 1
        assert tracer.sample_counts("simulate.stepper_factor") == 16
        assert {tracer.parent_name(span) for span in tracer.spans
                if span[0] == "simulate.stepper_factor"} == {"simulate.step"}
    finally:
        tracer.uninstall()


def test_mode_sweep_solves_once_per_mirror_class(tracing):
    # kmax 2 has 13 rows; (a, b) and (a, -b) share a solve when their sigma floats
    # agree, as an isotropic density's do, so 9 mirror classes remain
    tracer = tracing.Tracer((RuntimeError, ValueError))
    try:
        tracing.wrap_slabflow(tracer)
        modes, _ = st.mode_sweep(dn.area(1.0), 1.0, 1.0, 2, 8)
        assert len(modes) == 13
        assert tracer.sample_counts("stability.solve_spectrum") == 9
    finally:
        tracer.uninstall()
