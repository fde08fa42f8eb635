"""Force profiles along one-dimensional surface shapes.

A non-periodic profile (tanh step or Gaussian bump) is placed on a window
of length L, blended to a constant by a cosine ramp so it becomes periodic,
and sampled on a one-dimensional torus grid.  Physical derivatives carry
1/L factors relative to torus derivatives.  The bending force column is
the first variation of the chosen density evaluated in adjoint form, so
centered finite differences of the discrete windowed energy reproduce it
to the differencing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import surface_energy as se
from .densities import EnergyDensity, willmore
# embed_coeffs and truncate_coeffs stay importable: perfbench/tracing.py wraps them here.
from .fourier import TorusGrid, coeffs_to_samples, embed_coeffs, \
    samples_to_coeffs, truncate_coeffs

__all__ = ["LineWindow", "windowed_profile", "force_columns"]


@dataclass(frozen=True)
class LineWindow:
    """Periodized window [-L/2, L/2) with N samples."""

    length: float
    samples: int
    blend_width: float = 2.0

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(1, self.samples)

    def x(self) -> np.ndarray:
        return (np.arange(self.samples) / self.samples - 0.5) * self.length

    def blend(self) -> np.ndarray:
        """Cosine ramp: 1 inside |x| <= L/2 - 1 - width, 0 outside |x| >= L/2 - 1."""
        a = self.length / 2.0 - 1.0 - self.blend_width
        x = np.abs(self.x())
        w = np.ones_like(x)
        ramp = (x > a) & (x < a + self.blend_width)
        w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (x[ramp] - a) / self.blend_width))
        w[x >= a + self.blend_width] = 0.0
        return w


def windowed_profile(win: LineWindow, shape: str) -> np.ndarray:
    """Samples of the blended profile: tanh(x) or exp(-x^2)."""
    x = win.x()
    if shape == "tanh":
        base = np.tanh(x)
    elif shape == "gaussian":
        base = np.exp(-(x**2))
    else:
        raise ValueError(f"unknown profile {shape!r}")
    return base * win.blend()


def windowed_energy(win: LineWindow, f: EnergyDensity, values: np.ndarray) -> float:
    """int f(eta', eta'') dx over the window (padded-grid quadrature)."""
    D, _ = se.derivative_tensors(samples_to_coeffs(values, win.grid), win.grid, 2)
    return float(np.mean(f.value(D[1] / win.length, D[2] / win.length**2))) * win.length


def line_first_variation(win: LineWindow, f: EnergyDensity, values: np.ndarray) -> np.ndarray:
    """dW/d eta as a function on the window, adjoint form with 1/L scalings."""
    D, fine = se.derivative_tensors(samples_to_coeffs(values, win.grid), win.grid, 2)
    fp, fM = f.grad(D[1] / win.length, D[2] / win.length**2)
    return se.adjoint_jet(fp / win.length, fM / win.length**2, fine, win.grid).samples()


def force_columns(win: LineWindow, shape: str, alpha: float, beta: float,
                  displacement: float) -> dict[str, np.ndarray]:
    """All columns of the force-profile table for one shape.

    area_curvature is H = eta'' / (1 + eta'^2)^(3/2) (the area force is -H;
    the sign convention is chosen so the column is negative where surface
    tension pulls a bump down).  willmore_force is the first variation of
    the bending density 1/2 int H^2 ds.  The displaced profile applies
    displacement * combined force along (eta', -1)/sqrt(1 + eta'^2), the
    orientation drawn in the reference sketches.
    """
    values = windowed_profile(win, shape)
    grid = win.grid
    c = samples_to_coeffs(values, grid)
    k = grid.axis_wavenumbers().astype(float)
    mult = 2j * np.pi * k / win.length
    d1 = coeffs_to_samples(c * mult, grid)
    d2 = coeffs_to_samples(c * mult**2, grid)
    A2 = 1.0 + d1**2
    curvature = d2 / A2**1.5
    wf = line_first_variation(win, willmore(), values)
    combined = alpha * curvature + beta * wf
    nu1 = d1 / np.sqrt(A2)
    nu2 = -1.0 / np.sqrt(A2)
    x = win.x()
    return {
        "x": x,
        "eta": values,
        "area_curvature": curvature,
        "willmore_force": wf,
        "combined_force": combined,
        "disp_x": x + displacement * combined * nu1,
        "disp_y": values + displacement * combined * nu2,
    }


def fd_force_oracle(win: LineWindow, f: EnergyDensity, values: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
    """Centered differences of the discrete windowed energy per node.

    Independent of the closed-form density derivatives: only f values are
    used.  Divided by the cell width so it approximates the force density.
    """
    h = win.length / win.samples
    out = np.empty(win.samples)
    for i in range(win.samples):
        vp = values.copy()
        vp[i] += eps
        vm = values.copy()
        vm[i] -= eps
        out[i] = (windowed_energy(win, f, vp) - windowed_energy(win, f, vm)) / (2 * eps * h)
    return out
