"""Command-line paths on the shipped configs: the figure-forces grid guard,
the --seed override, a degenerate flattening map, the not-elliptic warning,
the warning that an eigenmode seed overrides `initial_data.modes`, and an
odd-sized vertical grid."""

import json
from pathlib import Path

import pytest

from slabflow.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_copy(tmp_path, name, edit, filename="c.json"):
    """configs/<name>.json with `edit` applied to its dict, written under tmp_path."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    edit(cfg)
    path = tmp_path / filename
    path.write_text(json.dumps(cfg))
    return str(path)


def test_figure_forces_on_two_dimensions_is_a_config_error(tmp_path, capsys):
    assert json.loads((CONFIGS / "area_waves.json").read_text())["grid"]["n"] == 2
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "area_waves.json"), "--out", str(out),
                 "figure-forces"]) == 2
    assert capsys.readouterr().err.startswith("config error: grid.n: ")
    assert not list(out.glob("forces_*.csv"))


def test_seed_flag_overrides_the_config_seed(tmp_path):
    def with_seed(seed):
        return lambda cfg: cfg.update(seed=seed)

    seed0 = config_copy(tmp_path, "area_waves", with_seed(0), "seed0.json")
    seed5 = config_copy(tmp_path, "area_waves", with_seed(5), "seed5.json")
    assert main(["--config", seed0, "--out", str(tmp_path / "flag"), "--seed", "5",
                 "variations"]) == 0
    assert main(["--config", seed5, "--out", str(tmp_path / "five"), "variations"]) == 0
    assert main(["--config", seed0, "--out", str(tmp_path / "zero"), "variations"]) == 0
    for csv in ("variations.csv", "variations_report.csv"):
        flag = (tmp_path / "flag" / csv).read_bytes()
        assert flag == (tmp_path / "five" / csv).read_bytes()
        assert flag != (tmp_path / "zero" / csv).read_bytes()


@pytest.mark.parametrize("command", ["geometry-check", "simulate"])
def test_steep_elevation_is_a_numeric_failure(tmp_path, capsys, command):
    def steep(cfg):
        cfg["initial_data"]["modes"] = [{"k": [1, 0], "eta": 0.3}]

    out = tmp_path / "out"
    assert main(["--config", config_copy(tmp_path, "area_waves", steep), "--out", str(out),
                 command]) == 4
    assert "numeric failure: flattening map degenerates" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_simulate_warns_when_not_elliptic(tmp_path, capsys):
    def below_threshold(cfg):
        cfg["density"]["beta"] = 0.02
        cfg["time"]["horizon"] = 0.01

    path = config_copy(tmp_path, "combo_stable", below_threshold)
    assert main(["--config", path, "--out", str(tmp_path / "out"), "simulate"]) == 0
    assert "warning: configuration is not elliptic (min ratio -" in capsys.readouterr().err


def test_simulate_warns_that_the_eigenmode_overrides_the_modes(tmp_path, capsys):
    def short(cfg):
        cfg["time"]["horizon"] = 0.02

    def with_modes(cfg):
        short(cfg)
        cfg["initial_data"]["modes"] = [{"k": [2, 1], "eta": 1e-4, "u": 5e-5}]

    only = config_copy(tmp_path, "combo_stable", short, "only.json")
    both = config_copy(tmp_path, "combo_stable", with_modes, "both.json")
    assert "eigenmode" in json.loads((CONFIGS / "combo_stable.json").read_text())["initial_data"]
    assert main(["--config", only, "--out", str(tmp_path / "only"), "simulate"]) == 0
    assert "warning:" not in capsys.readouterr().err
    assert main(["--config", both, "--out", str(tmp_path / "both"), "simulate"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and "initial_data.modes" in err
    assert ((tmp_path / "both" / "trace.csv").read_bytes()
            == (tmp_path / "only" / "trace.csv").read_bytes())


@pytest.mark.parametrize("command", ["geometry-check", "variations"])
def test_odd_vertical_grid_runs(tmp_path, command):
    # N = 10 pads to 16 (N = 2 mod 4); M_v = 25 takes the even-N branch of clenshaw_curtis
    def resize(cfg):
        cfg["grid"].update(N=10, M_v=25)

    path = config_copy(tmp_path, "area_waves", resize)
    assert main(["--config", path, "--out", str(tmp_path / "out"), command]) == 0


# The output directory appears with a command's first file: a run that exits 2 on a
# check inside its subcommand, or that writes no file, leaves no --out behind.


def nyquist_mode(cfg):
    cfg["initial_data"] = {"modes": [{"k": [cfg["grid"]["N"] // 2, 0], "eta": 1e-3}]}


def index_past_the_count(cfg):
    cfg["initial_data"] = {"eigenmode": {"k": [1, 0], "amplitude": 1e-4, "index": 1000}}


@pytest.mark.parametrize("command, edit", [
    ("figure-forces", lambda cfg: None),  # grid.n = 2
    ("simulate", nyquist_mode),
    ("simulate", index_past_the_count),
], ids=["figure-forces-n2", "simulate-nyquist", "simulate-eigenmode-index"])
def test_exit_two_inside_a_subcommand_makes_no_directory(tmp_path, capsys, command, edit):
    out = tmp_path / "out"
    assert main(["--config", config_copy(tmp_path, "area_waves", edit), "--out", str(out),
                 command]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["ellipticity", "geometry-check"])
def test_a_command_that_writes_no_file_makes_no_directory(tmp_path, command):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "area_waves.json"), "--out", str(out),
                 command]) == 0
    assert not out.exists()


def test_a_nested_absent_directory_is_made_with_the_first_file(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(["--config", str(CONFIGS / "combo_stable.json"), "--out", str(out),
                 "dispersion"]) == 0
    assert [p.name for p in out.iterdir()] == ["dispersion.csv"]
