"""`simulate` writes the discrete energy-dissipation series to ed.csv beside
trace.csv: one row per step, 17 significant digits, LF endings, and the same
bytes on a rerun."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from slabflow.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "willmore_decay.json"
DT, STEPS = 0.001, 100  # time.dt and time.horizon / time.dt of that config


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = []
    for name in ("a", "b"):
        d, stdout = tmp_path_factory.mktemp(name), io.StringIO()
        with redirect_stdout(stdout):
            assert main(["--config", str(CONFIG), "--out", str(d), "simulate"]) == 0
        out.append((d, stdout.getvalue()))
    return out


def test_one_row_per_step(runs):
    text = (runs[0][0] / "ed.csv").read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    lines = text.decode().splitlines()
    assert lines[0] == "t,ed_residual,D_half"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (STEPS, 3)
    np.testing.assert_allclose(rows[:, 0], (np.arange(STEPS) + 0.5) * DT, rtol=1e-12)
    assert np.all(rows[:, 2] > 0.0)
    for line in lines[1:]:
        for v in line.split(","):
            assert v == format(float(v), ".17g")


def test_matches_the_reported_relative_residual(runs):
    d, stdout = runs[0]
    reported = float(re.search(r"ED residual \(relative\) (\S+);", stdout)[1])
    rows = np.loadtxt(d / "ed.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1])) / np.max(rows[:, 2]) == pytest.approx(reported, rel=1e-3)


def test_byte_identical_rerun(runs):
    (a, _), (b, _) = runs
    for name in ("ed.csv", "trace.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "trace.csv").read_text().splitlines()[0] == \
        "t,E_eq,D_eq,E_imp,D_imp,E_geo,mass"
