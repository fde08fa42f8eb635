"""Half-spectrum jets and the cached adjoint symbols, bit for bit.

`surface_energy.derivative_tensors` forms a dense stack of derivatives on the
half spectrum only, gathered straight from the coarse coefficients
(`fourier.embed_half`), and `adjoint_jet` reads its slot symbols from a table
cached per padded grid.  Both must give the bits of the plain computation:
the full-spectrum embedding times every derivative symbol, synthesized as one
stack, and the adjoint's symbol stack concatenated again on every call.  The
jets must also take the synthesis (direct sums or FFT) the full stack takes.
"""

from itertools import product

import numpy as np
import pytest

from slabflow import fourier
from slabflow import surface_energy as se
from slabflow.fourier import TorusGrid, embed_coeffs, samples_to_coeffs, truncate_coeffs


def random_stack(grid: TorusGrid, fields: int | None, rng) -> np.ndarray:
    """Hermitian coefficients of random real fields, shape grid.shape (+ (fields,)):
    every band entry is excited, the coarse Nyquist planes included."""
    batch = () if fields is None else (fields,)
    values = rng.standard_normal(batch + grid.shape)
    return np.moveaxis(samples_to_coeffs(values, grid), 0, -1) if batch else \
        samples_to_coeffs(values, grid)


def mode_stack(grid: TorusGrid, modes: list, fields: int, rng) -> np.ndarray:
    amps = {k: rng.standard_normal(fields) + 1j * rng.standard_normal(fields) for k in modes}
    return fourier.hermitian_scatter(grid, amps, (fields,))


def zero_pad(coeffs: np.ndarray, grid: TorusGrid, fine: TorusGrid) -> np.ndarray:
    """The full-spectrum embedding written out axis by axis: zero-pad, and split the
    coarse Nyquist into halves at h and M - h."""
    N, M, h = grid.N, fine.N, grid.N // 2
    out = coeffs
    for axis in range(grid.n):
        c = np.moveaxis(out, axis, 0)
        r = np.zeros((M,) + c.shape[1:], dtype=complex)
        r[:h] = c[:h]
        r[M - h + 1:] = c[N - h + 1:]
        r[h] = r[M - h] = 0.5 * c[h]
        out = np.moveaxis(r, 0, axis)
    return out


def reference_jets(coeffs: np.ndarray, grid: TorusGrid, max_order: int) -> dict:
    """The jets from the full spectrum: embed, times every symbol, one synthesis."""
    n, fine = grid.n, grid.padded()
    symbols, _, index = se._jet_table(fine, max_order)
    base = np.moveaxis(zero_pad(coeffs, grid, fine), tuple(range(n)), tuple(range(-n, 0)))
    b = base.ndim - n
    samples = fourier.coeffs_to_samples(np.expand_dims(base, b) * symbols, fine)
    return {r: np.moveaxis(np.take(samples, idx, axis=b), range(b, b + r), range(-r, 0))
            for r, idx in index.items()}


def reference_adjoint(w: np.ndarray, fine: TorusGrid, coarse: TorusGrid) -> np.ndarray:
    """J* of the slot field w with its symbol stack concatenated on the call."""
    symbols, _, index = se._jet_table(fine, 2)
    symbols = np.concatenate([-symbols[index[1]], symbols[index[2].ravel()]])
    out = np.zeros(fine.shape, dtype=complex)
    for symbol, c in zip(symbols, samples_to_coeffs(w, fine)):
        out += symbol * c
    return truncate_coeffs(out, fine, coarse)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


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


GRIDS = [(1, 16), (1, 1024), (2, 16), (2, 32)]


@pytest.mark.parametrize("n, N", GRIDS)
@pytest.mark.parametrize("fields", [None, 1, 2, 3])
def test_jets_keep_their_bits(n, N, fields, direct_sums):
    grid = TorusGrid(n, N)
    coeffs = random_stack(grid, fields, np.random.default_rng([n, N, fields or 0]))
    assert np.any(coeffs[(N // 2,) * n])  # coarse Nyquist content
    for max_order in (2, 3):
        del direct_sums[:]
        D, fine = se.derivative_tensors(coeffs, grid, max_order)
        took = len(direct_sums)
        expect = reference_jets(coeffs, grid, max_order)
        # one synthesis of the whole stack each, by the same method
        assert len(direct_sums) == 2 * took and took <= 1
        assert bool(took) == (n == 1 and N == 16)
        assert fine == grid.padded()
        for r in range(1, max_order + 1):
            assert same_bits(D[r], expect[r])


def test_dense_jets_are_the_half_spectrum_inverse_fft():
    grid = TorusGrid(2, 16)
    coeffs = random_stack(grid, 3, np.random.default_rng(7))
    fine = grid.padded()
    symbols, _, index = se._jet_table(fine, 2)
    base = np.moveaxis(zero_pad(coeffs, grid, fine), (0, 1), (-2, -1))
    full = base[:, None] * symbols
    samples = np.fft.irfftn(full[..., :fine.N // 2 + 1], s=fine.shape, axes=(-2, -1),
                            norm="forward")
    D, _ = se.derivative_tensors(coeffs, grid, 2)
    assert same_bits(D[2], np.moveaxis(np.take(samples, index[2], axis=1), (1, 2), (-2, -1)))


def test_embed_half_is_the_kept_half_of_the_embedding():
    for n, N in GRIDS:
        grid = TorusGrid(n, N)
        coeffs = random_stack(grid, 2, np.random.default_rng(N))
        fine = grid.padded()
        full = np.moveaxis(zero_pad(coeffs, grid, fine), tuple(range(n)),
                           tuple(range(-n, 0)))
        assert same_bits(fourier.embed_half(coeffs, grid, fine), full[..., :fine.N // 2 + 1])


@pytest.mark.parametrize("fields", [None, 1, 3])
def test_embedding_is_the_zero_padding(fields):
    # embed_coeffs and embed_half share one gather; this holds it to the padding itself
    for n, N in GRIDS:
        grid = TorusGrid(n, N)
        coeffs = random_stack(grid, fields, np.random.default_rng(N + n))
        fine = grid.padded()
        assert same_bits(embed_coeffs(coeffs, grid, fine), zero_pad(coeffs, grid, fine))
        mask = coeffs != 0 if fields is None else (coeffs != 0).any(axis=-1)
        assert np.array_equal(fourier.embedded_support(mask, grid, fine),
                              zero_pad(mask.astype(complex), grid, fine) != 0)


def crossover_stacks(rng):
    """n = 2, N = 16 stacks around SPARSE_MODES excited derivatives: a coarse Nyquist
    entry off the axes becomes two fine pairs, and k = 0 has no derivative."""
    grid = TorusGrid(2, 16)
    reps = [k for k in product(range(-7, 8), repeat=2) if k > (-k[0], -k[1])]
    picks = [reps[i] for i in rng.choice(len(reps), fourier.SPARSE_MODES + 1, replace=False)]
    out = []
    for count in (fourier.SPARSE_MODES - 2, fourier.SPARSE_MODES - 1, fourier.SPARSE_MODES):
        out.append(picks[:count] + [(8, 3)])           # count + 2 excited on the fine grid
        out.append(picks[:count] + [(8, 0), (0, 0)])   # count + 1
    out.append(picks[:fourier.SPARSE_MODES + 1])
    out.append(picks[:fourier.SPARSE_MODES] + [(0, 0)])
    return grid, out


def test_jets_take_the_synthesis_of_the_full_stack(direct_sums):
    grid, stacks = crossover_stacks(np.random.default_rng(11))
    seen = set()
    for modes in stacks:
        coeffs = mode_stack(grid, modes, 2, np.random.default_rng(len(modes)))
        del direct_sums[:]
        D, _ = se.derivative_tensors(coeffs, grid, 2)
        took = len(direct_sums)
        expect = reference_jets(coeffs, grid, 2)
        assert len(direct_sums) == 2 * took
        seen.add(took)
        for r in (1, 2):
            assert same_bits(D[r], expect[r])
    assert seen == {0, 1}


@pytest.mark.parametrize("n, N", [(1, 16), (1, 1024), (2, 16)])
def test_adjoint_keeps_its_bits(n, N):
    grid = TorusGrid(n, N)
    fine = grid.padded()
    w = np.random.default_rng(N + n).standard_normal((n + n * n,) + fine.shape)
    assert same_bits(se.adjoint_jet(w, fine, grid).coeffs, reference_adjoint(w, fine, grid))
    table = se._adjoint_symbols(fine)
    assert table is se._adjoint_symbols(fine) and not table.flags.writeable
