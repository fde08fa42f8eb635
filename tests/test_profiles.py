"""Force profiles on the periodized line against closed-form oracles."""

import numpy as np
import pytest

from slabflow import profiles as pf
from slabflow import surface_energy as se
from slabflow.densities import area, combo, willmore
from slabflow.fourier import random_band_limited


def gaussian_bending_force(x):
    """Closed-form first variation of int H^2 ds for eta = exp(-x^2).

    Halved to the 1/2-convention used by the bending density.
    """
    num = (8 * np.exp(5 * x**2) * (5 - 126 * x**2 + 284 * x**4 - 168 * x**6)
           + 64 * x**2 * np.exp(3 * x**2) * (-15 + 36 * x**2 - 44 * x**4 + 48 * x**6)
           + 8 * np.exp(7 * x**2) * (3 - 12 * x**2 + 4 * x**4))
    den = (np.exp(2 * x**2) + 4 * x**2) ** 4 * np.sqrt(1 + 4 * x**2 * np.exp(-2 * x**2))
    return 0.5 * num / den


def gaussian_curvature(x):
    """eta''/(1+eta'^2)^(3/2) for eta = exp(-x^2)."""
    return -np.exp(-x**2) * (2 - 4 * x**2) / (1 + 4 * x**2 * np.exp(-2 * x**2)) ** 1.5


@pytest.fixture(scope="module")
def window():
    return pf.LineWindow(20.0, 1024)


class TestWindow:
    def test_blend_support(self, window):
        x = window.x()
        w = window.blend()
        assert np.all(w[np.abs(x) <= 6.9] == 1.0)
        assert np.all(w[np.abs(x) >= 9.0] == 0.0)
        assert np.all((0.0 <= w) & (w <= 1.0))

    def test_profiles(self, window):
        x = window.x()
        t = pf.windowed_profile(window, "tanh")
        g = pf.windowed_profile(window, "gaussian")
        inner = np.abs(x) <= 5.0
        assert np.max(np.abs(t[inner] - np.tanh(x[inner]))) < 1e-12
        assert np.max(np.abs(g[inner] - np.exp(-x[inner] ** 2))) < 1e-12
        with pytest.raises(ValueError):
            pf.windowed_profile(window, "sech")


class TestGaussianColumns:
    def test_peak_values(self, window):
        cols = pf.force_columns(window, "gaussian", 1.0, 1.0, 0.02)
        i0 = np.argmin(np.abs(cols["x"]))
        assert abs(cols["area_curvature"][i0] + 2.0) < 1e-10
        assert abs(cols["willmore_force"][i0] - 32.0) < 1e-6
        # opposition at the peak: restoring curvature, outward bending force
        assert cols["area_curvature"][i0] < 0.0
        assert cols["willmore_force"][i0] > 0.0

    def test_curves_match_closed_forms(self, window):
        cols = pf.force_columns(window, "gaussian", 1.0, 1.0, 0.02)
        x = cols["x"]
        mask = np.abs(x) <= 3.0
        wf = gaussian_bending_force(x[mask])
        assert np.max(np.abs(cols["willmore_force"][mask] - wf)) <= 1e-6 * np.max(np.abs(wf))
        cv = gaussian_curvature(x[mask])
        assert np.max(np.abs(cols["area_curvature"][mask] - cv)) <= 1e-10 * np.max(np.abs(cv))

    def test_combined_column_is_linear_combination(self, window):
        a, b = 0.7, 1.3
        cols = pf.force_columns(window, "gaussian", a, b, 0.02)
        combo = a * cols["area_curvature"] + b * cols["willmore_force"]
        assert np.max(np.abs(cols["combined_force"] - combo)) < 1e-12 * np.max(np.abs(combo))


class TestTanhColumns:
    def test_odd_symmetry_and_zero_at_origin(self, window):
        cols = pf.force_columns(window, "tanh", 1.0, 1.0, 0.02)
        H, W = cols["area_curvature"], cols["willmore_force"]
        i0 = np.argmin(np.abs(cols["x"]))
        scaleH, scaleW = np.max(np.abs(H)), np.max(np.abs(W))
        assert abs(H[i0]) < 1e-10 * scaleH
        assert abs(W[i0]) < 1e-7 * scaleW
        j = np.arange(1, window.samples)
        assert np.max(np.abs(H[j] + H[window.samples - j])) < 1e-9 * scaleH
        assert np.max(np.abs(W[j] + W[window.samples - j])) < 1e-6 * scaleW


class TestFDOracle:
    @pytest.mark.parametrize("shape", ["gaussian", "tanh"])
    def test_bending_force_matches_nodal_differences(self, shape):
        win = pf.LineWindow(20.0, 256)
        vals = pf.windowed_profile(win, shape)
        force = pf.line_first_variation(win, willmore(), vals)
        oracle = pf.fd_force_oracle(win, willmore(), vals)
        assert np.max(np.abs(force - oracle)) <= 1e-4 * np.max(np.abs(force))

    def test_area_force_matches_nodal_differences(self):
        win = pf.LineWindow(20.0, 256)
        vals = pf.windowed_profile(win, "gaussian")
        force = pf.line_first_variation(win, area(1.0), vals)
        oracle = pf.fd_force_oracle(win, area(1.0), vals)
        assert np.max(np.abs(force - oracle)) <= 1e-5 * np.max(np.abs(force))


@pytest.mark.parametrize("density", [willmore(), combo(0.7, 1.3)], ids=["willmore", "combo"])
def test_unit_window_matches_surface_first_variation(density):
    """On a window of length 1 the physical and torus derivatives coincide, so
    the line force is the first variation of `surface_energy` on the 1-D torus."""
    win = pf.LineWindow(1.0, 64)
    eta = random_band_limited(win.grid, 6, 0.05, np.random.default_rng(11))
    line = pf.line_first_variation(win, density, eta.samples())
    torus = se.first_variation(density, eta).samples()
    assert np.max(np.abs(line - torus)) <= 1e-13 * np.max(np.abs(torus))
