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
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid

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
