"""The slot layout of the surface jet.

A jet (p, M) is read as slots z = (p_k, then M_ij row by row), and each
derivative of the density as one symmetric tensor over those slots.  Its
entries must be the density's blocks, copied exactly, on every ordering of
p- and M-slots; and the variations built on it must keep exact zeros where
the blocks give them.
"""

from itertools import product

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid, random_band_limited


def families(n: int):
    """The five density families of the acceptance suite, in dimension n."""
    C0 = [[2.0, 0.3], [0.3, 1.0]] if n == 2 else [[2.0]]
    return [dn.area(1.0), dn.willmore(), dn.scalar_willmore(1.0, 0.7, n=n),
            dn.anisotropic(C0=C0, n=n), dn.combo(-1.0, 0.5)]


def jet_points(n: int, count: int = 5):
    rng = np.random.default_rng(n)
    p = 0.3 * rng.standard_normal((count, n))
    M = 0.3 * rng.standard_normal((count, n, n))
    return p, M + np.swapaxes(M, 1, 2)


def block_entry(blocks, n: int, slots: tuple[int, ...]) -> np.ndarray:
    """The entry of the derivative on the given slots, read from its block:
    the p indices in slot order, then the M index pairs in slot order."""
    ps = [a for a in slots if a < n]
    Ms = [divmod(a - n, n) for a in slots if a >= n]
    return blocks[len(Ms)][(...,) + tuple(ps) + tuple(i for pair in Ms for i in pair)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", range(5))
def test_slot_tensor_places_every_block_entry(n, family):
    density = families(n)[family]
    p, M = jet_points(n)
    for blocks in (density.grad(p, M), density.hess(p, M), density.third(p, M)):
        T = se._slot_tensor(blocks)
        r = len(blocks) - 1
        assert T.shape == (len(p),) + (n + n * n,) * r
        for slots in product(range(n + n * n), repeat=r):
            assert np.array_equal(T[(...,) + slots], block_entry(blocks, n, slots))


def test_slots_are_the_rank_one_slot_tensor():
    p, M = jet_points(2)
    assert np.array_equal(se._slots(p, M), np.concatenate([p, M.reshape(len(M), 4)], axis=1))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", range(5))
def test_second_variation_of_zero_direction_is_exactly_zero(n, family):
    grid = TorusGrid(n, 16)
    eta = random_band_limited(grid, 3, 0.1, np.random.default_rng(family))
    out = se.second_variation_apply(families(n)[family], eta, SpectralField.zero(grid))
    assert np.array_equal(out.coeffs, np.zeros(grid.shape))


def test_third_variation_of_constant_form_is_exactly_zero():
    # f = 1/2 (C0 : M)^2 is quadratic in the jet, so its third derivative vanishes
    # and every block einsum of the third variation sums exact zeros
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(3)
    eta, phi, psi = (random_band_limited(grid, 3, 0.1, rng) for _ in range(3))
    density = dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]])
    out = se.third_variation_apply(density, eta, phi, psi)
    assert np.array_equal(out.coeffs, np.zeros(grid.shape))
