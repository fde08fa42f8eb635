"""Malformed configuration values are config errors that name their path.

Each case used to pass `parse_config` or to raise something other than
ConfigError: a TypeError from `dict(...)`, an OverflowError from `float`,
a KeyError or ValueError from the density constructors, or a ValueError
from `admissible_data`.  The command line then exited 1 with a traceback,
or ran on a value it should have refused.
"""

import copy
import json
import re

import pytest

from slabflow.cli import main
from slabflow.config import ConfigError, parse_config

BASE = {
    "density": {"family": "area"},
    "grid": {"n": 2, "N": 16, "M_v": 12},
    "time": {"dt": 0.002, "horizon": 0.01, "output_interval": 5},
    "kmax": 2,
}


def with_(path, value):
    """BASE with the value at the dotted `path` replaced (parents created)."""
    cfg = copy.deepcopy(BASE)
    *parents, key = path.split(".")
    node = cfg
    for p in parents:
        node = node.setdefault(p, {})
    node[key] = value
    return cfg


# (dotted path in the message, config)
CASES = {
    "grid-int": ("grid", with_("grid", 5)),
    "grid-empty-list": ("grid", with_("grid", [])),
    "grid-pairs": ("grid", with_("grid", [["n", 1]])),
    "time-list": ("time", with_("time", [1])),
    "figure-string": ("figure", with_("figure", "both")),
    "variations-int": ("variations", with_("variations", 3)),
    "initial_data-list": ("initial_data", with_("initial_data", [])),
    "eigenmode-int": ("initial_data.eigenmode", with_("initial_data.eigenmode", 5)),
    "family-list": ("density.family", with_("density", {"family": ["area"]})),
    "eta-nan": ("initial_data.modes[0].eta",
                with_("initial_data.modes", [{"k": [1, 0], "eta": float("nan")}])),
    "eta-inf": ("initial_data.modes[0].eta",
                with_("initial_data.modes", [{"k": [1, 0], "eta": float("inf")}])),
    "gravity-huge-int": ("gravity", with_("gravity", 10**400)),
    "combo-no-params": ("density", with_("density", {"family": "combo"})),
    "combo-no-beta": ("density", with_("density", {"family": "combo", "alpha": 1.0})),
    "anisotropic-no-params": ("density", with_("density", {"family": "anisotropic"})),
    "anisotropic-only-m1": ("density", with_("density", {"family": "anisotropic", "m1": 1.0})),
    "anisotropic-matrix-m0": ("density", with_("density", {
        "family": "anisotropic", "matrix": [[1.0, 0.0], [0.0, 1.0]], "m0": 1.0})),
    "anisotropic-matrix-m1": ("density", with_("density", {
        "family": "anisotropic", "matrix": [[1.0, 0.0], [0.0, 1.0]], "m1": 1.0})),
    "mean-mode-eta": ("initial_data.modes[1].eta", with_("initial_data.modes", [
        {"k": [1, 0], "eta": 1e-3}, {"k": [0, 0], "eta": 0.1}])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_parse_config_names_the_path(case):
    path, raw = CASES[case]
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
        parse_config(raw)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_exits_two(tmp_path, capsys, case):
    path, raw = CASES[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_null_sections_and_valid_densities_still_parse():
    raw = with_("initial_data", None)
    for key in ("figure", "variations", "time"):
        raw[key] = None
    assert parse_config(raw).eigenmode is None
    assert parse_config(with_("initial_data.eigenmode", None)).eigenmode is None
    for dens in ({"family": "anisotropic", "m0": 1.0, "m1": 0.5},
                 {"family": "anisotropic", "matrix": [[1.0, 0.0], [0.0, 2.0]]},
                 {"family": "combo", "alpha": -1.0, "beta": 0.042}):
        parse_config(with_("density", dens)).density()


def test_variation_modes_accept_the_mean():
    raw = with_("variations", {"eta_modes": [{"k": [0, 0], "eta": 0.1}],
                               "phi_modes": [{"k": [0, 0], "eta": 0.2}]})
    cfg = parse_config(raw)
    assert cfg.variations_eta[0].k == (0, 0) and cfg.variations_phi[0].eta == 0.2
