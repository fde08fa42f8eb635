"""`density.matrix` must be n x n for the grid's surface dimension n.

A 2 x 2 matrix on a one-dimensional surface used to be accepted: `einsum`
broadcast the 1 x 1 Hessian against it, so the density silently used the
sum of the matrix entries.
"""

import json

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import surface_energy as se
from slabflow.cli import main
from slabflow.config import ConfigError, parse_config


def config(matrix, n=1):
    return {
        "density": {"family": "anisotropic", "matrix": matrix},
        "grid": {"n": n, "N": 16, "M_v": 12},
        "kmax": 2,
    }


@pytest.mark.parametrize("command", ["ellipticity", "dispersion", "variations"])
def test_wrong_size_matrix_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config([[2.0, 0.3], [0.3, 1.0]])))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == 2
    assert "density.matrix" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, n", [
    ([[2.0]], 2), ([[1.0, 0.0], [0.0, 1.0]], 1), ([[1.0, 0.0], [0.0]], 2),
    ([1.0, 2.0], 1), ([["a"]], 1), ([[float("nan")]], 1), ("I", 1),
])
def test_parser_rejects_wrong_size_or_entries(matrix, n):
    with pytest.raises(ConfigError, match="density.matrix"):
        parse_config(config(matrix, n))


def test_matching_matrix_accepted():
    cfg = parse_config(config([[2.0]]))
    assert cfg.density_params["matrix"] == [[2.0]]
    f = cfg.density()
    # sigma(k) = C0^2 |2 pi k|^4 for f = 1/2 (C0 eta'')^2
    assert se.hessian_symbol(f, 0.0, (1,)) == pytest.approx(4.0 * (2.0 * np.pi) ** 4, rel=1e-14)
    cfg2 = parse_config(config([[2.0, 0.3], [0.3, 1.0]], n=2))
    assert cfg2.density().name == "anisotropic"


def test_library_rejects_wrong_size():
    with pytest.raises(ValueError, match="1x1"):
        dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]], n=1)
    with pytest.raises(ValueError, match="2x2"):
        dn.anisotropic(C0=[[2.0]], n=2)
