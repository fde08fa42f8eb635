"""Command line: out-of-band wavevectors are config errors; the shared check table."""

import json
from pathlib import Path

import pytest

from slabflow.cli import main
from slabflow.config import ConfigError, parse_config
from slabflow.simulate import ModeSeed


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, content):
    with open(path, "w") as fh:
        json.dump(content, fh)
    return str(path)


def base_config(**overrides):
    cfg = {
        "density": {"family": "combo", "alpha": -1.0, "beta": 0.042},
        "gravity": -1.0,
        "depth": 1.0,
        "grid": {"n": 2, "N": 16, "M_v": 12},
        "time": {"dt": 0.002, "horizon": 0.01, "output_interval": 5},
        "kmax": 2,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


OUT_OF_BAND = {
    "initial_data.modes[0].k": {"initial_data": {"modes": [{"k": [9, 0], "eta": 1e-3}]}},
    "initial_data.eigenmode.k": {"initial_data": {"eigenmode": {"k": [9, 0]}}},
    "variations.eta_modes[0].k": {"variations": {"eta_modes": [{"k": [1, -8], "eta": 1e-3}]}},
    "variations.phi_modes[0].k": {"variations": {"phi_modes": [{"k": [-8, 1], "eta": 1e-3}]}},
}


class TestOutOfBandWavevectors:
    @pytest.mark.parametrize("command", ["simulate", "geometry-check", "variations"])
    @pytest.mark.parametrize("path", sorted(OUT_OF_BAND))
    def test_config_error_exit_two(self, tmp_path, capsys, command, path):
        cfg = write_config(tmp_path / "c.json", base_config(**OUT_OF_BAND[path]))
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("initial_data, path", [
        ({"modes": [{"k": [16, 0], "eta": 1e-3}]}, "initial_data.modes[0].k"),
        ({"modes": [{"k": [1, 0], "eta": 1e-3}, {"k": [16, 1], "eta": 1e-3}]},
         "initial_data.modes[1].k"),
        ({"eigenmode": {"k": [16, 0]}}, "initial_data.eigenmode.k"),
        ({"modes": [{"k": [-15, 16], "u": 1e-3}]}, "initial_data.modes[0].k"),
    ])
    def test_simulate_refuses_band_edge(self, tmp_path, capsys, initial_data, path):
        """A component at N/2 parses but is no simulation input: the grid holds one
        coefficient for k and -k there, so the run's E_geo disagrees with E_eq."""
        raw = json.loads((CONFIGS / "area_waves.json").read_text())
        cfg = write_config(tmp_path / "c.json", {**raw, "initial_data": initial_data})
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "simulate"]) == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_band_edge_parses(self):
        cfg = parse_config(base_config(
            initial_data={"modes": [{"k": [8, -7], "eta": 1e-3}],
                          "eigenmode": {"k": [8, 0]}}))
        assert isinstance(cfg.modes[0], ModeSeed)
        assert cfg.modes[0].k == (8, -7)
        assert cfg.eigenmode["k"] == (8, 0)

    def test_one_dimensional_band(self):
        raw = base_config(grid={"n": 1, "N": 16, "M_v": 12},
                          initial_data={"modes": [{"k": 9, "eta": 1e-3}]})
        with pytest.raises(ConfigError, match="initial_data.modes"):
            parse_config(raw)


class TestCheckTable:
    def test_validate_has_det_row_and_count(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert any(line.split()[0] == "det_gradPhi_vs_J" for line in lines[:-1])
        assert lines[-1] == f"validate: {len(lines) - 1}/{len(lines) - 1} checks passed"

    def test_geometry_check_shares_the_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config(grid={"n": 2, "N": 32, "M_v": 24}))
        assert main(["--config", cfg, "--out", str(tmp_path), "geometry-check"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = {line.split()[0]: line for line in lines[1:-1]}
        assert "tol" not in rows["min_J"]  # informational row, not counted
        for name in ("A_gradPhiT_identity", "det_gradPhi_vs_J", "piola_residual"):
            assert rows[name].endswith("pass")
        assert lines[-1] == f"geometry-check: {len(rows) - 1}/{len(rows) - 1} checks passed"

    def test_failures_are_marked_and_counted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config())  # unconverged coarse grid
        assert main(["--config", cfg, "--out", str(tmp_path), "geometry-check"]) == 4
        out = capsys.readouterr().out
        failed = sum(line.endswith("FAIL") for line in out.split("\n"))
        assert failed >= 1
        assert f"geometry-check: {5 - failed}/5 checks passed" in out


def test_area_waves_first_slope_is_two(tmp_path):
    """The fit keeps only errors well above the roundoff of W, so the central
    difference of W shows its second order."""
    assert main(["--config", str(CONFIGS / "area_waves.json"), "--out", str(tmp_path),
                 "variations"]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "variations_report.csv").read_text().strip().split("\n")[1:])
    assert abs(float(rows["fd_slope_first_variation"]) - 2.0) <= 0.01
