"""figure.blend_width must be positive: a zero or negative width cuts the
force profiles off with a jump instead of blending them out (exit 2)."""

import json

import pytest

from slabflow.cli import main
from slabflow.config import ConfigError, parse_config


def figure_config(width):
    return {
        "density": {"family": "willmore"},
        "grid": {"n": 1, "N": 16, "M_v": 12},
        "figure": {"profile": "both", "samples": 512, "blend_width": width},
    }


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_parser_rejects_non_positive_width(width):
    with pytest.raises(ConfigError, match="figure.blend_width"):
        parse_config(figure_config(width))


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_figure_forces_exits_two_without_output(tmp_path, capsys, width):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(figure_config(width)))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "figure-forces"]) == 2
    assert "figure.blend_width" in capsys.readouterr().err
    assert not list(tmp_path.rglob("forces_*.csv"))


def test_positive_width_still_writes_profiles(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(figure_config(2.0)))
    assert main(["--config", str(path), "--out", str(tmp_path), "figure-forces"]) == 0
    assert (tmp_path / "forces_tanh.csv").exists()
