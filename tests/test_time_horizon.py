"""A horizon shorter than one time step, or not a whole number of steps, is a
config error (exit 2), not a run that takes round(horizon / dt) steps and
ends at another time (0 steps and only the t = 0 record below one step)."""

import json
from pathlib import Path

import pytest

from slabflow import simulate as sim
from slabflow.cli import main
from slabflow.config import ConfigError, parse_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "willmore_decay.json"


def config(horizon):
    raw = json.loads(CONFIG.read_text())
    raw["time"]["horizon"] = horizon
    return raw


@pytest.mark.parametrize("horizon", [0.0004, 0.0, -1.0])
def test_parser_rejects_horizon_below_dt(horizon):
    with pytest.raises(ConfigError, match="time.horizon"):
        parse_config(config(horizon))


def test_horizon_of_one_step_is_accepted():
    assert parse_config(config(0.001)).time.horizon == 0.001


def test_simulate_exits_two_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config(0.0004)))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "simulate"]) == 2
    assert "time.horizon" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_library_settings_reject_horizon_below_dt():
    with pytest.raises(ValueError):
        sim.SimulationSettings(dt=1e-3, horizon=4e-4)
    assert sim.SimulationSettings(dt=1e-3, horizon=1e-3).horizon == 1e-3


@pytest.mark.parametrize("horizon", [0.0015, 0.0105])
def test_parser_rejects_horizon_between_steps(horizon):
    with pytest.raises(ConfigError, match="time.horizon"):
        parse_config(config(horizon))


@pytest.mark.parametrize("horizon", [0.1, 1.0])
def test_parser_accepts_whole_number_of_steps(horizon):
    assert parse_config(config(horizon)).time.horizon == horizon


def test_simulate_between_steps_exits_two_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config(0.0015)))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "simulate"]) == 2
    assert "time.horizon" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()
