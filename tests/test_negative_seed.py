"""A negative seed is a configuration error, in the config file and on the command line.

`np.random.default_rng` refuses negative seeds, so `variations`,
`geometry-check` and `validate` used to exit 1 with a ValueError traceback,
while the other subcommands accepted the seed silently.
"""

import json

import pytest

from slabflow.cli import main
from slabflow.config import ConfigError, parse_config

BASE = {
    "density": {"family": "area"},
    "grid": {"n": 2, "N": 16, "M_v": 12},
    "time": {"dt": 0.002, "horizon": 0.01, "output_interval": 5},
    "kmax": 2,
}


def test_parse_config_refuses_negative_seed():
    with pytest.raises(ConfigError, match="^seed: must be >= 0$"):
        parse_config({**BASE, "seed": -3})
    assert parse_config({**BASE, "seed": 0}).seed == 0


@pytest.mark.parametrize("command", ["variations", "geometry-check"])
def test_config_seed_exits_two(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**BASE, "seed": -3}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 2
    assert "config error: seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["variations", "geometry-check", "validate"])
def test_seed_flag_exits_two(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(BASE))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1", command])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
