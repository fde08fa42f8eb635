"""Closed-form oracle for the transverse (pure diffusion) block of the mode operator.

A horizontal velocity perpendicular to kappa carries no pressure and no
surface motion: it diffuses between no slip at x3 = -b and zero stress at
the top, so lambda_j = |kappa|^2 + ((j + 1/2) pi / b)^2 for every density
and gravity.  Only the discrete eigenvalues come from the solver.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import surface_energy as se
from slabflow.stability import assemble_mode, solve_spectrum

B, M_V = 1.0, 24
WAVEVECTORS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, -1), (4, 0)]
DENSITIES = {
    "area": (lambda: dn.area(1.0), 1.0),
    "willmore": (dn.willmore, 0.0),
    "combo": (lambda: dn.combo(-1.0, 0.042), -1.0),
}


def transverse(k, j):
    kappa_sq = (2.0 * np.pi) ** 2 * sum(c * c for c in k)
    return kappa_sq + ((j + 0.5) * np.pi / B) ** 2


@pytest.mark.parametrize("family", sorted(DENSITIES))
@pytest.mark.parametrize("k", WAVEVECTORS, ids=str)
def test_transverse_eigenvalues_match_closed_form(family, k):
    make, g = DENSITIES[family]
    # the surface symbol; eta is frozen at k = 0
    sigma = 0.0 if k == (0, 0) else se.hessian_symbol(make(), g, k, n=2)
    lam = solve_spectrum(assemble_mode(k, B, sigma, M_V)).eigenvalues
    for j in range(4):
        exact = transverse(k, j)
        rel = np.min(np.abs(lam - exact)) / exact
        assert rel <= 1e-10, (family, k, j, exact, rel)
