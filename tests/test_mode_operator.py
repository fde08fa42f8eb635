"""The per-wavevector operator, row by row, and its regular k = 0 branch.

`row_oracle` writes L and B entry by entry from the rows documented in
`slabflow.stability`: interior momentum, no slip at the bottom, tangential
and normal stress at the top, the divergence at every node, and the
kinematic row, or at k = 0 the frozen eta and the pressure gauge
p(bottom) = 0 in place of the bottom divergence row.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from slabflow import stability as st
from slabflow.cli import main
from slabflow.densities import area
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain, chebyshev_lobatto
from slabflow.simulate import FlattenedState, Simulator

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
B_DEPTH, M_V = 1.3, 10


def row_oracle(k, b, sigma, M):
    n = len(k)
    kappa = 2.0 * np.pi * np.array(k, dtype=float)
    k2 = float(kappa @ kappa)
    xi, Dxi = chebyshev_lobatto(M)
    D = (2.0 / b) * Dxi
    D2 = D @ D
    dim = (n + 2) * M + 1

    def u(j, i):  # node i of velocity component j (j = n is u_3); node 0 is the top
        return j * M + i

    def p(i):
        return (n + 1) * M + i

    eta = dim - 1
    L = np.zeros((dim, dim), dtype=complex)
    B = np.zeros((dim, dim), dtype=complex)
    for j in range(n + 1):
        for i in range(M):
            r = u(j, i)
            if i == M - 1:  # no slip: u_j(bottom) = 0
                L[r, r] = 1.0
            elif i == 0 and j < n:  # tangential stress: d3 u_j + i kappa_j u_3 = 0
                for c in range(M):
                    L[r, u(j, c)] = D[0, c]
                L[r, u(n, 0)] = 1j * kappa[j]
            elif i == 0:  # normal stress: p - 2 d3 u_3 - sigma eta = 0
                L[r, p(0)] = 1.0
                for c in range(M):
                    L[r, u(n, c)] = -2.0 * D[0, c]
                L[r, eta] = -sigma
            else:  # momentum: lambda u_j = (k2 - D2) u_j + grad_j p
                B[r, r] = 1.0
                for c in range(M):
                    L[r, u(j, c)] = (k2 if c == i else 0.0) - D2[i, c]
                if j < n:
                    L[r, p(i)] = 1j * kappa[j]
                else:
                    for c in range(M):
                        L[r, p(c)] = D[i, c]
    for i in range(M):
        r = p(i)
        if k2 == 0.0 and i == M - 1:  # gauge p(bottom) = 0
            L[r, r] = 1.0
            continue
        for j in range(n):  # divergence: i kappa . u_h + d3 u_3 = 0
            L[r, u(j, i)] = 1j * kappa[j]
        for c in range(M):
            L[r, u(n, c)] = D[i, c]
    if k2 == 0.0:  # frozen eta
        L[eta, eta] = 1.0
    else:  # kinematic: lambda eta = -u_3(top)
        B[eta, eta] = 1.0
        L[eta, u(n, 0)] = -1.0
    return L, B


WAVEVECTORS = {1: [(0,), (3,), (-5,), (16,)], 2: [(0, 0), (1, -2), (16, 1), (-3, 16)]}


@pytest.mark.parametrize("sigma", [-2.5, 0.0, 7.25])
@pytest.mark.parametrize("k", WAVEVECTORS[1] + WAVEVECTORS[2], ids=str)
def test_rows_match_the_oracle(k, sigma):
    op = st.assemble_mode(k, B_DEPTH, sigma, M_V)
    L, B = row_oracle(k, B_DEPTH, sigma, M_V)
    assert np.array_equal(op.L, L)
    assert np.array_equal(op.B, B)


@pytest.mark.parametrize("n", [1, 2])
def test_zero_mode_pencil_is_regular(n):
    op = st.assemble_mode((0,) * n, 1.0, 0.0, 24)
    assert np.linalg.cond(op.L) < 1e8


@pytest.mark.parametrize("n", [1, 2])
def test_zero_mode_resolvent_on_eigenvectors(n):
    """A backward-Euler step of `Simulator.step` on each k = 0 eigenvector.  The mean
    mode's pencil is real and `step` keeps the mode real, so each vector is rotated
    real by the phase of its largest entry."""
    k = (0,) * n
    s = Simulator(area(1.0), 1.0, FlattenedDomain(b=1.0, horizontal=TorusGrid(n, 8), M_v=24))
    dt = 5e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = st.solve_spectrum(s.op(k))
        for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            v = (v / v[np.argmax(np.abs(v))]).real
            x = s.step(FlattenedState(s.dom, {k: v}), dt, "backward-euler").X[0]
            assert np.max(np.abs(x - v / (1 + lam * dt))) <= 1e-12 * np.max(np.abs(v))


def test_area_waves_first_variation_slope(tmp_path):
    """Only the leading errors that keep falling enter the fit; the central
    difference of W is second order in eps."""
    assert main(["--config", str(CONFIGS / "area_waves.json"), "--out", str(tmp_path),
                 "variations"]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "variations_report.csv").read_text().strip().split("\n")[1:])
    assert 1.9 <= float(rows["fd_slope_first_variation"]) <= 2.1
