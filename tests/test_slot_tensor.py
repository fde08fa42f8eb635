"""The slot layout of the surface jet.

A jet (p, M) is read as slots z = (p_k, then M_ij row by row), and each
derivative of the density as one symmetric tensor over those slots.  Its
entries must be the density's blocks, copied exactly, on every ordering of
p- and M-slots; and the variations built on it must keep exact zeros where
the blocks give them.

The jet and the blocks live slots first, grid last, in memory, and the
second and third variations contract them there.  They are held to an
independent statement of the same sums, written term by term with
slots-last einsums, and the memory layout of a jet must never change a
density value.
"""

from itertools import product

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid, random_band_limited

TOL = 1e-13  # of the sup of a variation, for sums taken in another order


def families(n: int):
    """The five density families of the acceptance suite, in dimension n."""
    C0 = [[2.0, 0.3], [0.3, 1.0]] if n == 2 else [[2.0]]
    return [dn.area(1.0), dn.willmore(), dn.scalar_willmore(1.0, 0.7, n=n),
            dn.anisotropic(C0=C0, n=n), dn.combo(-1.0, 0.5)]


class BlocksOnly(dn.EnergyDensity):
    """A density that gives its derivative blocks but no actions of its own."""

    def __init__(self, base):
        self.base = base

    def value(self, p, M):
        return self.base.value(p, M)

    def grad(self, p, M):
        return self.base.grad(p, M)

    def hess(self, p, M):
        return self.base.hess(p, M)

    def third(self, p, M):
        return self.base.third(p, M)


def oracle_families(n: int):
    """The five families, then the normalized combo, whose actions forward to its base,
    then the combo as a density without actions, bare and normalized, whose actions
    are the interface's contractions of its blocks."""
    combo = dn.combo(-1.0, 0.5)
    return families(n) + [dn.normalize_density(combo, n), BlocksOnly(combo),
                          dn.normalize_density(BlocksOnly(combo), n)]


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


def fields(n: int, seed: int):
    grid = TorusGrid(n, 16)
    rng = np.random.default_rng(seed)
    return grid, [random_band_limited(grid, 4, 0.1, rng) for _ in range(3)]


def adjoint_of(q, N, fine, grid):
    """J*(q, N) of a slots-last slot field, (q_k, then N_ij row by row)."""
    w = np.concatenate([q, N.reshape(N.shape[:-2] + (-1,))], axis=-1)
    return se.adjoint_jet(np.moveaxis(w, -1, 0), fine, grid)


def second_oracle(f, eta, phi):
    (p, gp), (M, gM), fine = se._jet_fields(eta, phi)
    fpp, fpM, fMM = f.hess(p, M)
    q = np.einsum("...kl,...l->...k", fpp, gp) + np.einsum("...kij,...ij->...k", fpM, gM)
    N = np.einsum("...kij,...k->...ij", fpM, gp) + np.einsum("...ijkl,...kl->...ij", fMM, gM)
    return adjoint_of(q, N, fine, eta.grid)


def third_oracle(f, eta, phi, psi):
    (p, gp, hp), (M, gM, hM), fine = se._jet_fields(eta, phi, psi)
    fppp, fppM, fpMM, fMMM = f.third(p, M)
    q = (np.einsum("...klm,...l,...m->...k", fppp, gp, hp)
         + np.einsum("...klij,...l,...ij->...k", fppM, gp, hM)
         + np.einsum("...klij,...l,...ij->...k", fppM, hp, gM)
         + np.einsum("...kijrs,...ij,...rs->...k", fpMM, gM, hM))
    N = (np.einsum("...lmij,...l,...m->...ij", fppM, gp, hp)
         + np.einsum("...mijkl,...m,...kl->...ij", fpMM, gp, hM)
         + np.einsum("...mijkl,...m,...kl->...ij", fpMM, hp, gM)
         + np.einsum("...ijklrs,...kl,...rs->...ij", fMMM, gM, hM))
    return adjoint_of(q, N, fine, eta.grid)


def assert_matches(out, ref):
    got, want = out.samples(), ref.samples()
    sup = np.max(np.abs(want))
    assert sup > 0.0
    assert np.max(np.abs(got - want)) <= TOL * sup


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", range(8))
def test_second_variation_matches_termwise_oracle(n, family):
    f = oracle_families(n)[family]
    _, (eta, phi, _) = fields(n, family)
    assert_matches(se.second_variation_apply(f, eta, phi), second_oracle(f, eta, phi))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", [0, 1, 2, 4, 5, 6, 7])
def test_third_variation_matches_termwise_oracle(n, family):
    f = oracle_families(n)[family]
    _, (eta, phi, psi) = fields(n, family)
    assert_matches(se.third_variation_apply(f, eta, phi, psi), third_oracle(f, eta, phi, psi))


@pytest.mark.parametrize("n", [1, 2])
def test_constant_form_third_variation_stays_exactly_zero(n):
    # fpMM and every other third-order block vanish for f = 1/2 (C0 : M)^2
    f = families(n)[3]
    _, (eta, phi, psi) = fields(n, 3)
    ref = third_oracle(f, eta, phi, psi)
    assert np.array_equal(ref.coeffs, np.zeros_like(ref.coeffs))
    assert np.array_equal(se.third_variation_apply(f, eta, phi, psi).coeffs, ref.coeffs)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", range(5))
def test_jet_layout_leaves_density_values_bit_for_bit(n, family):
    f = families(n)[family]
    grid, stack = fields(n, 10 + family)
    D, _ = se.derivative_tensors(np.stack([fld.coeffs for fld in stack], axis=-1), grid, 2)
    p, M = D[1][1], D[2][1]  # slots-last views of the middle field's slots-first memory
    assert np.moveaxis(p, -1, 0).flags.c_contiguous
    assert np.moveaxis(M, (-2, -1), (0, 1)).flags.c_contiguous
    pc, Mc = np.ascontiguousarray(p), np.ascontiguousarray(M)
    for name in ("value", "grad", "hess", "third"):
        got, want = getattr(f, name)(p, M), getattr(f, name)(pc, Mc)
        if name == "value":
            got, want = (got,), (want,)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert np.array_equal(bits(a), bits(b))
