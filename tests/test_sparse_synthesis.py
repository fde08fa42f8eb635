"""The synthesis decision of `fourier.coeffs_to_samples` on the record path.

A coefficient stack with at most `fourier.SPARSE_MODES` excited wavevectors
is summed directly over them, a denser one goes through the half-spectrum
inverse FFT.  Both must give the samples a full complex `np.fft.ifftn` gives,
for the padded surface jets (`derivative_tensors`) and for the harmonic
extension behind the flattening map (`geometric_coefficients`), including the
entries that need care: k = 0, the coarse Nyquist plane split by
`embed_coeffs`, the self-conjugate corner and a generic +-k pair.  The
record's copy-summed Q_eta must equal the pointwise form summed over its copies.
"""

from itertools import product

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import fourier
from slabflow import geometry as geo
from slabflow import simulate as sim
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid, embed_coeffs, hermitian_scatter

TOL = 1e-13


def special_modes(n: int, N: int) -> list:
    """k = 0, the coarse Nyquist k_1 = N/2, the self-conjugate corner and a generic pair."""
    h = N // 2
    if n == 1:
        return [(0,), (h,), (3,)]
    return [(0, 0), (h, 3), (h, h), (2, -5)]


def band_modes(n: int, N: int, count: int, rng) -> list:
    """`count` distinct conjugacy representatives from the band, without k = 0 and
    the Nyquist planes, so that every stack made from them excites `count`."""
    reps = [k for k in product(range(-N // 2 + 1, N // 2), repeat=n)
            if any(k) and k > tuple(-c for c in k)]
    return [reps[i] for i in sorted(rng.choice(len(reps), count, replace=False))]


def stack(grid: TorusGrid, modes: list, batch: int, rng, scale: float = 1.0) -> np.ndarray:
    amps = {k: scale * (rng.standard_normal(batch) + 1j * rng.standard_normal(batch))
            for k in modes}
    return hermitian_scatter(grid, amps, (batch,))


def reference_tensors(coeffs: np.ndarray, grid: TorusGrid, max_order: int) -> dict:
    """Derivative tensors on the padded grid, one full complex inverse FFT per entry."""
    n, fine = grid.n, grid.padded()
    c = embed_coeffs(coeffs, grid, fine)
    batch = c.shape[n:]
    kappa = 2j * np.pi * np.fft.fftfreq(fine.N, 1.0 / fine.N)
    out = {}
    for order in range(1, max_order + 1):
        D = np.zeros(batch + fine.shape + (n,) * order)
        for idx in product(range(n), repeat=order):
            symbol = np.ones(fine.shape, dtype=complex)
            for axis in idx:
                symbol = symbol * kappa.reshape([fine.N if a == axis else 1 for a in range(n)])
            vals = np.fft.ifftn(c * symbol.reshape(fine.shape + (1,) * len(batch)),
                                axes=tuple(range(n))).real * fine.npoints
            D[(Ellipsis,) + idx] = np.moveaxis(vals, tuple(range(n)), tuple(range(-n, 0)))
        out[order] = D
    return out


def reference_extension(coeffs: np.ndarray, dom: geo.FlattenedDomain) -> np.ndarray:
    """Harmonic extensions (..., *grid, Mv) by a full complex inverse FFT per level."""
    grid = dom.horizontal
    kmod = 2.0 * np.pi * np.sqrt(np.sum(grid.wavevectors().astype(float) ** 2, axis=0))
    c = coeffs[..., None] * np.exp(kmod[..., None] * dom.x3)
    axes = tuple(range(-1 - grid.n, -1))
    return np.fft.ifftn(c, axes=axes).real * grid.npoints


def assert_close(got: np.ndarray, expect: np.ndarray):
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= TOL * np.max(np.abs(expect))


@pytest.fixture
def direct_sums(monkeypatch):
    """Counts the stacks that took the direct sum."""
    calls = []
    original = fourier._mode_sum

    def wrapper(*args):
        calls.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(fourier, "_mode_sum", wrapper)
    return calls


def stacks(n: int):
    """(grid, wavevectors, takes the direct sum): the special entries, and stacks one
    wavevector below and one above the crossover."""
    rng = np.random.default_rng(n)
    N = 16 if n == 2 else 96  # room for SPARSE_MODES + 1 representatives in the band
    grid = TorusGrid(n, N)
    out = [(TorusGrid(n, 16), special_modes(n, 16), True)]
    for count, sparse in ((fourier.SPARSE_MODES, True), (fourier.SPARSE_MODES + 1, False)):
        out.append((grid, band_modes(n, N, count, rng), sparse))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_derivative_tensors_match_full_transforms(n, direct_sums):
    rng = np.random.default_rng(10 + n)
    for grid, modes, sparse in stacks(n):
        coeffs = stack(grid, modes, 3, rng)
        del direct_sums[:]
        D, fine = se.derivative_tensors(coeffs, grid, 3)
        assert bool(direct_sums) == sparse
        assert fine == grid.padded()
        expect = reference_tensors(coeffs, grid, 3)
        for order in (1, 2, 3):
            assert_close(D[order], expect[order])


@pytest.mark.parametrize("n", [1, 2])
def test_extension_and_flattening_map_match_full_transforms(n, direct_sums):
    rng = np.random.default_rng(20 + n)
    for grid, modes, sparse in stacks(n):
        dom = geo.FlattenedDomain(b=1.0, horizontal=grid, M_v=10)
        # small enough that min J stays near 1 with every mode excited
        eta = SpectralField(grid, stack(grid, modes, 1, rng, 1e-4 / len(modes))[..., 0])
        del direct_sums[:]
        ext = geo.harmonic_extension(eta, dom).values
        gc = geo.geometric_coefficients(eta, dom)
        assert len(direct_sums) == (2 if sparse else 0)
        assert_close(ext, reference_extension(eta.coeffs, dom))

        parts = reference_extension(np.stack(
            [eta.derivative(tuple(int(a == i) for a in range(n))).coeffs for i in range(n)]
            + [fourier.sqrt_neg_laplacian(eta).coeffs]), dom)
        grad = dom.chi * parts
        grad[n] += ext / dom.b
        assert_close(gc.grad_chi_ext.values, grad)
        assert_close(gc.J.values, 1.0 + grad[n])
        A = np.zeros((n + 1,) + grad.shape)
        A[range(n + 1), range(n + 1)] = 1.0
        A[:, n] -= grad / (1.0 + grad[n])
        assert_close(gc.A.values, A)


def test_all_zero_stack_keeps_its_shape():
    grid = TorusGrid(2, 16)
    dom = geo.FlattenedDomain(b=1.0, horizontal=grid, M_v=10)
    assert np.array_equal(geo.harmonic_extension(SpectralField.zero(grid), dom).values,
                          np.zeros(grid.shape + (10,)))
    D, fine = se.derivative_tensors(np.zeros(grid.shape + (2,), dtype=complex), grid, 2)
    assert np.array_equal(D[2], np.zeros((2,) + fine.shape + (2, 2)))


def families(n: int):
    """The five density families of the acceptance suite, in dimension n."""
    C0 = [[2.0, 0.3], [0.3, 1.0]] if n == 2 else [[2.0]]
    return [dn.area(1.0), dn.willmore(), dn.scalar_willmore(1.0, 0.7, n=n),
            dn.anisotropic(C0=C0, n=n), dn.combo(-1.0, 0.5)]


def record_jet(n: int, density, monkeypatch):
    """The padded jet (gp, gM) of a record's surface copies, copy 0 being eta."""
    grid = TorusGrid(n, 16)
    s = sim.Simulator(density, 1.0, geo.FlattenedDomain(b=1.0, horizontal=grid, M_v=12))
    seeds = ([sim.ModeSeed((1, 0), eta=0.02, u=0.05), sim.ModeSeed((1, -2), eta=-0.01j, u=0.02),
              sim.ModeSeed((0, 0), u=0.1)] if n == 2 else
             [sim.ModeSeed((1,), eta=0.02, u=0.05), sim.ModeSeed((3,), eta=-0.01j, u=0.02)])
    state = s.init_pressure(s.admissible_data(seeds))
    jets = []
    original = se._jet_fields

    def capture(*fields):
        jets.append(original(*fields))
        return jets[-1]

    monkeypatch.setattr(se, "_jet_fields", capture)
    s._geometric_pair(state)
    (gp, gM, _), = jets
    assert len(gp) == len(s._alpha_set())
    return gp, gM


def pointwise_reference(hess, gp, gM):
    """hess f . (J zeta x J zeta) written out term by term."""
    fpp, fpM, fMM = hess
    return (np.einsum("...kl,...k,...l->...", fpp, gp, gp)
            + 2.0 * np.einsum("...kij,...k,...ij->...", fpM, gp, gM)
            + np.einsum("...ijkl,...ij,...kl->...", fMM, gM, gM))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", range(5))
def test_copy_summed_hessian_form_matches_pointwise(n, family, monkeypatch):
    density = families(n)[family]
    gp, gM = record_jet(n, density, monkeypatch)
    hess = density.hess(gp[0], gM[0])
    points = tuple(range(1, 1 + n))
    reference = pointwise_reference(hess, gp[1:], gM[1:])
    scale = float(np.sum(np.mean(np.abs(reference), axis=points)))
    assert scale > 0.0
    pointwise = se.hessian_form(hess, gp[1:], gM[1:])
    assert np.max(np.abs(pointwise - reference)) <= TOL * np.max(np.abs(reference))
    summed = float(np.sum(np.mean(pointwise, axis=points)))
    assert abs(se.hessian_form_total(hess, gp[1:], gM[1:]) - summed) <= TOL * scale
