"""Spectral fields on the unit torus T^n, n in {1, 2}.

Fields are real valued and stored as Fourier coefficients in numpy FFT
layout, normalized so that ``coeffs[k]`` multiplies ``exp(2*pi*i*k.x)``.
The retained integer wavevectors are ``-N/2 < k_i <= N/2``.  Products of
fields are dealiased by the 3/2 padding rule, which is exact for quadratic
nonlinearities of band-limited fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "hermitian_scatter",
    "mode_samples",
    "derivative_multiplier",
    "axis_multipliers",
    "dealiased_product",
    "sqrt_neg_laplacian",
    "random_band_limited",
    "conjugacy_representatives",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the unit torus with N points per direction."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"horizontal dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def npoints(self) -> int:
        return self.N**self.n

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT ordering, band -N/2 < k <= N/2."""
        k = np.rint(np.fft.fftfreq(self.N, 1.0 / self.N)).astype(int)
        k[k == -self.N // 2] = self.N // 2
        return k

    def wavevectors(self) -> np.ndarray:
        """Integer wavevector components, shape (n, N[, N])."""
        k = self.axis_wavenumbers()
        return np.stack(np.meshgrid(*([k] * self.n), indexing="ij"))

    def ksq(self) -> np.ndarray:
        """|2 pi k|^2 on the coefficient grid."""
        kk = self.wavevectors()
        return (2.0 * np.pi) ** 2 * np.sum(kk.astype(float) ** 2, axis=0)

    def nodes(self) -> np.ndarray:
        """Sample points x_j = j / N, shape (n, N[, N])."""
        x = np.arange(self.N) / self.N
        return np.stack(np.meshgrid(*([x] * self.n), indexing="ij"))

    def padded(self) -> "TorusGrid":
        """Grid for 3/2-rule dealiasing (padded size rounded up to even)."""
        M = (3 * self.N + 1) // 2
        if M % 2:
            M += 1
        return TorusGrid(self.n, M)


def _resize(coeffs: np.ndarray, n: int, N: int, M: int) -> np.ndarray:
    """Move coefficients on the first n axes from N onto M slots per axis.

    Embedding (M > N) zero-pads; truncation (M < N) drops the outer band.
    The Nyquist mode k = N/2 of the coarse grid stands for the pair +-N/2:
    embedding splits it evenly and truncation gathers both halves, so that
    real fields round-trip exactly.
    """
    if M == N:
        return coeffs.copy()
    if M > N:
        return _embed(coeffs, N, M, range(n), [M] * n)
    h = M // 2
    out = coeffs
    for axis in range(n):
        c = np.moveaxis(out, axis, 0)
        r = np.zeros((M,) + c.shape[1:], dtype=complex)
        r[:h] = c[:h]
        r[M - h + 1:] = c[N - h + 1:]
        r[h] = c[h] + c[N - h]
        out = np.moveaxis(r, 0, axis)
    return out


@cache
def _embed_slots(N: int, M: int) -> np.ndarray:
    """The coarse slot each of M fine slots reads along one axis when N slots are
    zero-padded onto M (N: an empty slot); both halves of the split coarse Nyquist
    read N/2."""
    h = N // 2
    slots = np.full(M, N)
    slots[:h] = np.arange(h)
    slots[M - h + 1:] = np.arange(N - h + 1, N)
    slots[[h, M - h]] = h
    slots.flags.writeable = False
    return slots


def _embed_gather(c: np.ndarray, N: int, M: int, axes, cuts, dtype) -> np.ndarray:
    """c, N slots on each of `axes`, gathered by `_embed_slots` onto the first
    `cut` of M slots on each axis (the split Nyquist not yet halved)."""
    axes = list(axes)
    slots = _embed_slots(N, M)
    out = np.zeros([N + 1 if a in axes else s for a, s in enumerate(c.shape)], dtype=dtype)
    out[tuple(slice(N) if a in axes else slice(None) for a in range(c.ndim))] = c
    for axis, cut in zip(axes, cuts):
        out = out.take(slots[:cut], axis=axis)
    return out


def _embed(c: np.ndarray, N: int, M: int, axes, cuts) -> np.ndarray:
    """The embedding of c from N onto M slots on each of `axes`, each cut to its
    first `cut` slots: zero-padded, with the coarse Nyquist split evenly."""
    out = _embed_gather(c, N, M, axes, cuts, complex)
    h = N // 2
    for axis, cut in zip(axes, cuts):
        for d in (h, M - h):
            if d < cut:
                out[(slice(None),) * axis + (d,)] *= 0.5
    return out


def embedded_support(mask: np.ndarray, src: TorusGrid, dst: TorusGrid) -> np.ndarray:
    """Where `embed_coeffs` onto `dst` puts the nonzero coarse entries `mask`."""
    return _embed_gather(mask, src.N, dst.N, range(src.n), [dst.N] * src.n, bool)


def embed_half(coeffs: np.ndarray, src: TorusGrid, dst: TorusGrid) -> np.ndarray:
    """The half spectrum, last axis 0..dst.N/2, of `embed_coeffs(coeffs, src, dst)`
    with the grid axes moved behind the stack axes: shape stack + dst.shape[:-1] +
    (dst.N/2 + 1,), the entries a half-spectrum inverse FFT reads."""
    n, N, M = src.n, src.N, dst.N
    if M <= N:
        raise ValueError("padded size must be larger than source size")
    c = np.moveaxis(coeffs, tuple(range(n)), tuple(range(-n, 0)))
    return _embed(c, N, M, range(c.ndim - n, c.ndim), [M] * (n - 1) + [M // 2 + 1])


def embed_coeffs(coeffs: np.ndarray, src: TorusGrid, dst: TorusGrid) -> np.ndarray:
    """Zero-pad spectral coefficients from grid `src` onto the finer `dst`."""
    if dst.N < src.N:
        raise ValueError("padded size must not be smaller than source size")
    return _resize(coeffs, src.n, src.N, dst.N)


def truncate_coeffs(coeffs: np.ndarray, src: TorusGrid, dst: TorusGrid) -> np.ndarray:
    """Restrict spectral coefficients from the finer `src` grid onto `dst`."""
    if src.N < dst.N:
        raise ValueError("padded size must not be smaller than source size")
    return _resize(coeffs, dst.n, src.N, dst.N)


# Crossover of the synthesis decision in `coeffs_to_samples`, measured on the two
# stacks of a record, the 7-copy jet (5 derivatives on 48^2) and the 4-field
# extension (32^2 x 24): with wavevectors drawn from |k|_inf <= 8 the direct sums
# cost as much as the FFT near 20 wavevectors for the jet and near 50 for the
# extension, and their sum per record meets the FFTs' near 40; from |k|_inf <= 4
# the sums still win at 40 (numpy 2.4.6, default BLAS threads, 2-vCPU shared host).
SPARSE_MODES = 40

# Crossover of the bulk-form decision in `simulate.Simulator._geometric_pair`: a record at
# n = 2 with P representatives, none on a Nyquist plane, sums its bulk forms over wavevector
# pairs (`geometry.pair_forms`) when (2P)^2 <= PAIR_FRACTION N^2 and synthesizes its copies on
# the grid (`geometry.geometric_forms`) otherwise.  Measured on random subsets of the 40
# representatives with |k|_inf <= 4 (n = 2, N = 32, M_v = 24) the two meet near
# (2P)^2 = 1.3 N^2, at P = 18-19.  Every n = 1 record takes the grid, the faster path there
# at every size (numpy 2.4.6, scipy 1.17.1, 2-vCPU shared host).
PAIR_FRACTION = 1.0


def _representatives(mask: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """FFT indices (P, n) of the true entries of `mask` that represent their +-k
    pair, and whether each is self-conjugate.

    The representative is the lexicographically smaller of k and -k mod N, so
    its first component lies in [0, N/2].
    """
    idx = np.argwhere(mask)
    lin, lin_conj = (np.ravel_multi_index(i.T, grid.shape) for i in (idx, -idx % grid.N))
    keep = lin <= lin_conj
    return idx[keep], (lin == lin_conj)[keep]


def direct_synthesis(mask: np.ndarray, grid: TorusGrid) -> bool:
    """The synthesis decision of `coeffs_to_samples` for a stack whose nonzero
    entries on `grid` are `mask`: sum directly over at most SPARSE_MODES excited
    wavevectors, where a +-k pair fills two entries and a self-conjugate k one."""
    corners = mask[(slice(None, None, grid.N // 2),) * grid.n]  # components 0 and N/2
    return (np.count_nonzero(mask) + np.count_nonzero(corners)) // 2 <= SPARSE_MODES


def half_samples(half: np.ndarray, grid: TorusGrid, tail: int = 0) -> np.ndarray:
    """Real samples of Hermitian coefficients given by their half spectrum: the grid
    axes, the last one cut to 0..N/2, are followed by `tail` axes (one inverse FFT)."""
    axes = tuple(range(half.ndim - tail - grid.n, half.ndim - tail))
    return np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")


def coeffs_to_samples(coeffs: np.ndarray, grid: TorusGrid, profile=None) -> np.ndarray:
    """Physical samples, shape lead + grid.shape + tail, of a stack of Hermitian
    coefficient arrays, shape lead + grid.shape (real output).

    With `profile`, a function from integer wavevectors (n,) + S to factors
    S + tail, each coefficient is first multiplied by the factors of its
    wavevector; without it tail = ().  A stack with at most SPARSE_MODES
    excited wavevectors (nonzero in any member) is summed directly over them
    (`_mode_sum`), a denser one goes through one half-spectrum inverse FFT.
    Both read one member of each +-k pair only.
    """
    n, N = grid.n, grid.N
    lead = coeffs.shape[:coeffs.ndim - n]
    L = int(np.prod(lead, dtype=int))
    mask = coeffs.reshape((L,) + grid.shape).any(axis=0)
    if not direct_synthesis(mask, grid):
        c, t = coeffs[..., :N // 2 + 1], 0
        if profile is not None:
            p = profile(grid.wavevectors()[..., :N // 2 + 1])
            t = p.ndim - n
            c = c.reshape(c.shape + (1,) * t) * p
        return half_samples(c, grid, t)
    reps, self_conj = _representatives(mask, grid)
    a = np.moveaxis(coeffs[(...,) + tuple(reps.T)], -1, 0).reshape(len(reps), L, 1)
    a = np.where(self_conj[:, None, None], a.real, 2.0 * a)
    tail = ()
    if profile is not None:
        p = profile(grid.axis_wavenumbers()[reps.T])
        tail = p.shape[1:]
        a = a * p.reshape(len(reps), 1, int(np.prod(tail, dtype=int)))
    return _mode_sum(grid, list(zip(map(tuple, reps), a)), lead, tail)


def samples_to_coeffs(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    axes = tuple(range(-grid.n, 0))
    return np.fft.fftn(values, axes=axes) / grid.npoints


def band_wavevector(grid: TorusGrid, k) -> tuple[int, ...]:
    """k as a tuple of ints; ValueError unless it has grid.n components, each in
    the retained band -N/2 < k_i <= N/2 (outside it k would alias)."""
    kt = (int(k),) if np.isscalar(k) else tuple(int(ki) for ki in k)
    if len(kt) != grid.n:
        raise ValueError(f"wavevector {kt} has wrong dimension")
    if any(not (-grid.N // 2 < ki <= grid.N // 2) for ki in kt):
        raise ValueError(f"wavevector {kt} outside retained band")
    return kt


def _hermitian_terms(grid: TorusGrid, modes: dict):
    """The Hermitian rule: (index, conjugate index or None, amplitude) per entry.

    Wavevector k goes to FFT index k mod N and its conjugate to -k mod N; a
    self-conjugate k (k = -k mod N) has no separate conjugate and keeps the
    real part of its amplitude.
    """
    for k, a in modes.items():
        kt = band_wavevector(grid, k)
        idx = tuple(ki % grid.N for ki in kt)
        idx_conj = tuple((-ki) % grid.N for ki in kt)
        if idx == idx_conj:
            yield idx, None, np.real(a)
        else:
            yield idx, idx_conj, a


def hermitian_scatter(grid: TorusGrid, modes: dict, tail: tuple[int, ...] = ()) -> np.ndarray:
    """Hermitian coefficients, shape grid.shape + tail, from {wavevector: amplitude}.

    Each entry contributes a exp(2 pi i k.x) + conj(a) exp(-2 pi i k.x),
    placed by `_hermitian_terms`.  Amplitudes are scalars or arrays of
    shape `tail`.
    """
    c = np.zeros(grid.shape + tail, dtype=complex)
    for idx, idx_conj, a in _hermitian_terms(grid, modes):
        c[idx] += a
        if idx_conj is not None:
            c[idx_conj] += np.conj(a)
    return c


def mode_samples(grid: TorusGrid, modes: dict, lead: tuple[int, ...] = (),
                 tail: tuple[int, ...] = ()) -> np.ndarray:
    """Real samples, shape lead + grid.shape + tail, of the field {wavevector: amplitude}.

    The field is the one `hermitian_scatter` describes, summed directly over
    the excited wavevectors instead of inverse transformed (`_mode_sum`): each
    entry is written as Re(w a exp(2 pi i k.x)) (w = 2 for a conjugate pair,
    1 for a self-conjugate k), oriented so that 0 <= k_1 <= N/2.  Amplitudes
    are arrays of shape lead + tail.
    """
    N = grid.N
    L, T = int(np.prod(lead, dtype=int)), int(np.prod(tail, dtype=int))
    terms = []
    for idx, idx_conj, a in _hermitian_terms(grid, modes):
        a = np.reshape(a, (L, T))
        if idx_conj is None:
            terms.append((idx, a))
        elif idx[0] > N // 2:
            terms.append((idx_conj, 2.0 * np.conj(a)))
        else:
            terms.append((idx, 2.0 * a))
    return _mode_sum(grid, terms, lead, tail)


def _mode_sum(grid: TorusGrid, terms: list, lead: tuple[int, ...],
              tail: tuple[int, ...]) -> np.ndarray:
    """Real samples, shape lead + grid.shape + tail, of the sum of Re(a exp(2 pi i k.x))
    over the terms (FFT index k with k_1 <= N/2, amplitude a of shape (L, T)).

    The sum runs one horizontal axis at a time as a matrix product with
    exp(2 pi i k_a x_a) over the distinct components k_a, the real part
    taken with the first axis.  The cost grows with the number of distinct
    components per axis rather than with N^n log N per field, so it pays for
    few excited modes (the matrix-multiplication transform).
    """
    n, N = grid.n, grid.N
    if not terms:
        return np.zeros(lead + grid.shape + tail)
    L, T = terms[0][1].shape
    # real coefficients (L, P_1, re/im, P_2.., T) over the distinct components P_a
    comps = [sorted({idx[axis] for idx, _ in terms}) for axis in range(n)]
    C = np.zeros((L, len(comps[0]), 2) + tuple(len(c) for c in comps[1:]) + (T,))
    for idx, a in terms:
        pos = tuple(c.index(i) for c, i in zip(comps, idx))
        C[(slice(None), pos[0], slice(None)) + pos[1:]] += np.stack([a.real, a.imag], axis=1)
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    phase = [roots[np.outer(np.arange(N), c) % N] for c in comps]  # (N, P_a)
    if n == 2:  # (re, im) of phase * (re, im) along the second axis
        rot = np.block([[phase[1].real, -phase[1].imag], [phase[1].imag, phase[1].real]])
        C = rot @ C.reshape(L, len(comps[0]), -1, T)
    # the real part along the first axis
    first = np.stack([phase[0].real, -phase[0].imag], axis=-1).reshape(N, -1)
    out = first @ C.reshape(L, first.shape[1], -1)
    return out.reshape(lead + grid.shape + tail)


def derivative_multiplier(grid: TorusGrid) -> np.ndarray:
    """Symbol 2 pi i k of d/dx along one axis, FFT ordering, Nyquist k = N/2 zeroed.

    A first derivative of a real field has no consistent sign at the
    Nyquist wavenumber, so that slot is dropped.
    """
    k1 = grid.axis_wavenumbers()
    mult = 2j * np.pi * k1.astype(float)
    mult[k1 == grid.N // 2] = 0.0
    return mult


def axis_multipliers(grid: TorusGrid) -> list[np.ndarray]:
    """`derivative_multiplier` of `grid` shaped for each axis i in turn.

    On a padded grid the zeroed Nyquist slot is empty after `embed_coeffs`
    and dropped by `truncate_coeffs`, so no output of a padded product sees it.
    """
    mult = derivative_multiplier(grid)
    return [mult.reshape([grid.N if a == axis else 1 for a in range(grid.n)])
            for axis in range(grid.n)]


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field on the torus, held as Fourier coefficients."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.grid.shape:
            raise ValueError(f"coefficient shape {c.shape} != grid shape {self.grid.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(grid: TorusGrid) -> "SpectralField":
        return SpectralField(grid, np.zeros(grid.shape, dtype=complex))

    @staticmethod
    def from_samples(grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("sample shape does not match grid")
        return SpectralField(grid, samples_to_coeffs(values, grid))

    @staticmethod
    def from_modes(grid: TorusGrid, modes: dict) -> "SpectralField":
        """Build a real field from {wavevector: complex amplitude}."""
        return SpectralField(grid, hermitian_scatter(grid, modes))

    # -- basic queries -----------------------------------------------------

    def samples(self) -> np.ndarray:
        return coeffs_to_samples(self.coeffs, self.grid)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        flipped = self.coeffs
        for axis in range(self.grid.n):
            flipped = np.flip(np.roll(flipped, -1, axis=axis), axis=axis)
        return bool(np.max(np.abs(self.coeffs - np.conj(flipped))) <= tol)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    # -- calculus ----------------------------------------------------------

    def derivative(self, multi_index: tuple[int, ...]) -> "SpectralField":
        """Partial derivative d^|m| / dx^m, computed mode by mode.

        The Nyquist plane is zeroed for odd derivative orders (it has no
        consistent sign for real fields).
        """
        mi = (multi_index,) if np.isscalar(multi_index) else tuple(multi_index)
        if len(mi) != self.grid.n:
            raise ValueError(
                f"multi-index length {len(mi)} does not match dimension {self.grid.n}"
            )
        if any(m < 0 or m != int(m) for m in mi):
            raise ValueError("multi-index entries must be non-negative integers")
        c = self.coeffs.copy()
        k1 = self.grid.axis_wavenumbers()
        for axis, m in enumerate(mi):
            if m == 0:
                continue
            mult = (2j * np.pi * k1) ** m
            if m % 2 == 1:
                mult[k1 == self.grid.N // 2] = 0.0
            shape = [1] * self.grid.n
            shape[axis] = self.grid.N
            c = c * mult.reshape(shape)
        return SpectralField(self.grid, c)

    def sobolev_norm(self, s: float, homogeneous: bool = False) -> float:
        """H^s norm, bracket convention (1 + |2 pi k|^2)^(s/2).

        With ``homogeneous=True`` returns (sum_{k != 0} |2 pi k|^(2s) |c_k|^2)^(1/2).
        """
        ksq = self.grid.ksq()
        power = np.abs(self.coeffs) ** 2
        if homogeneous:
            mask = ksq > 0
            total = np.sum(ksq[mask] ** s * power[mask])
        else:
            total = np.sum((1.0 + ksq) ** s * power)
        return float(np.sqrt(total))

    def l2_inner(self, other: "SpectralField") -> float:
        """Integral of the product of two real fields over the torus."""
        self._check_same_grid(other)
        return float(np.sum(self.coeffs * np.conj(other.coeffs)).real)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product on a 3/2-padded grid, truncated back to the band."""
    f._check_same_grid(g)
    fine = f.grid.padded()
    fv = coeffs_to_samples(embed_coeffs(f.coeffs, f.grid, fine), fine)
    gv = coeffs_to_samples(embed_coeffs(g.coeffs, g.grid, fine), fine)
    prod = samples_to_coeffs(fv * gv, fine)
    return SpectralField(f.grid, truncate_coeffs(prod, fine, f.grid))


def sqrt_neg_laplacian(f: SpectralField) -> SpectralField:
    """Fourier multiplier 2 pi |k| (the operator sqrt(-Laplace))."""
    kk = f.grid.wavevectors().astype(float)
    mult = 2.0 * np.pi * np.sqrt(np.sum(kk**2, axis=0))
    return SpectralField(f.grid, f.coeffs * mult)


def conjugacy_representatives(kmax: int, n: int = 2) -> list[tuple[int, ...]]:
    """Nonzero wavevectors with 0 < |k|_inf <= kmax, one per conjugate pair."""
    # idx > -idx lexicographically keeps one of each pair and drops k = 0
    reps = [idx for idx in product(range(-kmax, kmax + 1), repeat=n)
            if idx > tuple(-c for c in idx)]
    reps.sort(key=lambda kt: (sum(c * c for c in kt), kt))
    return reps


def random_band_limited(
    grid: TorusGrid,
    kmax: int,
    amplitude: float,
    rng: np.random.Generator,
) -> SpectralField:
    """Random real field supported on 0 < |k|_inf <= kmax, sup-norm ~ amplitude."""
    modes = {k: rng.standard_normal() + 1j * rng.standard_normal()
             for k in product(range(-kmax, kmax + 1), repeat=grid.n) if any(k)}
    f = SpectralField.from_modes(grid, modes)
    peak = np.max(np.abs(f.samples()))
    if peak == 0.0:
        return f
    return f * (amplitude / peak)
