"""The eigenmode index: negative is a config error, too large a library ValueError
that `simulate` reports as a config error (exit 2)."""

import json

import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow.cli import main
from slabflow.config import ConfigError, parse_config
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain


def base_config(index):
    return {
        "density": {"family": "combo", "alpha": -1.0, "beta": 0.042},
        "gravity": -1.0,
        "depth": 1.0,
        "grid": {"n": 2, "N": 16, "M_v": 12},
        "time": {"dt": 0.002, "horizon": 0.01, "output_interval": 5},
        "initial_data": {"eigenmode": {"k": [1, 0], "amplitude": 1e-4, "index": index}},
        "kmax": 2,
    }


def run_simulate(tmp_path, index):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base_config(index)))
    return main(["--config", str(path), "--out", str(tmp_path / "out"), "simulate"])


@pytest.fixture
def simulator():
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 16), M_v=12)
    return sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)


def test_negative_index_is_rejected_by_the_parser():
    with pytest.raises(ConfigError, match="initial_data.eigenmode.index"):
        parse_config(base_config(-1))


def test_negative_index_exits_two(tmp_path, capsys):
    assert run_simulate(tmp_path, -1) == 2
    assert "initial_data.eigenmode.index" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_index_past_the_resolved_eigenpairs_exits_two(tmp_path, capsys):
    assert run_simulate(tmp_path, 1000) == 2
    err = capsys.readouterr().err
    assert "config error: initial_data.eigenmode" in err
    assert "eigenpairs resolved" in err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_library_raises_value_error(simulator):
    resolved = len(sim.solve_spectrum(simulator.op((1, 0))).eigenvalues)
    with pytest.raises(ValueError, match=f"{resolved} eigenpairs resolved"):
        simulator.eigenmode_data((1, 0), 1e-4, resolved)
    with pytest.raises(ValueError, match="out of range"):
        simulator.eigenmode_data((1, 0), 1e-4, -1)
    state = simulator.eigenmode_data((1, 0), 1e-4, resolved - 1)
    assert set(state.modes) == {(1, 0)}


def test_in_range_index_runs(tmp_path):
    assert run_simulate(tmp_path, 1) == 0
    assert (tmp_path / "out" / "trace.csv").exists()
