"""One stacked state and one path through a step.

A `FlattenedState` is one complex stack of mode vectors; `modes` is a view
of its rows.  `Simulator.run` advances only through `step` and evaluates the
energy-dissipation pair only through `_equilibrium_pair`, so whatever wraps
those two (the benchmark's layer tracer, a profiler) sees every step.  The
record's surface jet goes through `surface_energy._jet_fields`.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import surface_energy as se
from slabflow.cli import main
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def setup():
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 16), M_v=12)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    state = s.init_pressure(s.admissible_data([sim.ModeSeed((1, 0), eta=0.002, u=0.05),
                                               sim.ModeSeed((1, -2), eta=-0.001j),
                                               sim.ModeSeed((0, 0), u=0.1)]))
    return s, state


def counting(s, names):
    """Wrap the named methods on the instance s; returns the call counter."""
    calls = Counter()
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(s, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        setattr(s, name, wrapper)
    return calls


@pytest.mark.parametrize("record_ed", [True, False])
def test_run_steps_through_step_and_equilibrium_pair(setup, record_ed):
    base, state = setup
    s = sim.Simulator(base.density, base.g, base.dom)
    calls = counting(s, ("step", "_equilibrium_pair"))
    nsteps = 7
    settings = sim.SimulationSettings(dt=1e-3, horizon=nsteps * 1e-3, output_interval=3,
                                      record_ed=record_ed)
    trace, _ = s.run(state, settings)
    assert calls["step"] == nsteps
    assert len(trace.t) == 4  # steps 0, 3, 6 and 7
    # every record evaluates the pair once inside `functionals`, and the ED series
    # reuses it there, so with the series every state's pair is evaluated once
    assert calls["_equilibrium_pair"] == (nsteps + 1 if record_ed else len(trace.t))
    if record_ed:
        assert calls["_equilibrium_pair"] >= nsteps


def test_stack_is_the_state_and_modes_write_through(setup):
    s, state = setup
    state = state.copy()
    keys, X = state.stack()
    assert state.stack()[1] is X
    assert keys == tuple(state.modes) == state.keys
    assert X.shape == (len(keys), s.layout.dim) and X.dtype == complex
    k = keys[1]
    state.modes[k][s.layout.eta] = 0.25 + 0.5j
    assert state.stack()[1][1, s.layout.eta] == 0.25 + 0.5j
    # a copy owns its stack
    twin = state.copy()
    twin.modes[k][s.layout.eta] = 0.0
    assert state.X[1, s.layout.eta] == 0.25 + 0.5j


def test_constructor_copies_its_dict(setup):
    s, state = setup
    rows = {k: x.copy() for k, x in state.modes.items()}
    built = sim.FlattenedState(s.dom, rows, 0.5)
    assert built.t == 0.5 and np.array_equal(built.X, state.X)
    next(iter(rows.values()))[0] = 1.0
    assert np.array_equal(built.X, state.X)


def test_step_keeps_wavevectors_and_time(setup):
    s, state = setup
    new = s.step(state, 2e-3)
    assert new.keys == state.keys and new.t == state.t + 2e-3
    assert new.X is not state.X
    assert list(new.modes) == list(state.modes)


def test_geometric_pair_takes_one_jet(setup, monkeypatch):
    s, state = setup
    ref = s._geometric_pair(state)
    calls = []
    original = se._jet_fields

    def wrapper(*fields):
        calls.append(len(fields))
        return original(*fields)

    monkeypatch.setattr(se, "_jet_fields", wrapper)
    assert s._geometric_pair(state) == ref
    assert calls == [len(s._alpha_set())]


@pytest.mark.parametrize("name", ["combo_stable", "figure_forces", "willmore_decay"])
def test_variations_checks_the_second_variation_at_flat_surface(name, tmp_path):
    """These configs have no eta modes: dW(0) vanishes, and the second variation
    carries the finite-difference check at second order in eps."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    assert "modes" not in cfg.get("initial_data", {}) and "variations" not in cfg
    assert main(["--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path),
                 "variations"]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "variations_report.csv").read_text().strip().split("\n")[1:])
    assert float(rows["pairing_first_variation"]) == 0.0
    assert float(rows["pairing_second_variation"]) != 0.0
    assert 1.9 <= float(rows["fd_slope_second_variation"]) <= 2.1
    assert float(rows["relative_mismatch_second_variation_eps_1e-4"]) <= 1e-5
