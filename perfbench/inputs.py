"""Seeded input generation for the benchmark workloads.

Everything here is plain numpy: the program under test receives only the
arrays and numbers made here, never the seed.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

import numpy as np

# Physics shared by the simulated workloads: combo(-1, 0.042) with g = -1,
# the `combo_stable` configuration, on the 32^2 x 24 grid of depth 1.
ALPHA, BETA, GRAVITY = -1.0, 0.042, -1.0
DEPTH = 1.0
GRID_N, M_V = 32, 24
DT = 1e-3

SEED_KMAX = 4           # eigenmode seeds use 0 < |k|_inf <= 4 (40 representatives)
TRAJECTORY_MODES = 8
AMPLITUDE = 1e-4        # largest eigenmode amplitude (max-abs normalisation)
SPECTRUM_KMAX = 6       # 84 representatives plus the k = 0 branch
SURFACE_KMAX = 8        # band of the random surface fields
SURFACE_SUP = 0.1       # sup norm of each random surface field
SURFACE_POOL = 4        # distinct (eta, phi, psi) triples per run
ANCHOR_SEED = 20181806  # fixed inputs of the recorded surface reference values


def representatives(kmax: int) -> list[tuple[int, int]]:
    """Nonzero 2-D wavevectors with |k|_inf <= kmax, one per +-k pair.

    The kept member of a pair is the lexicographically larger one, sorted
    by |k|^2 and then by k.
    """
    reps = []
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            k = (kx, ky)
            if k != (0, 0) and k > (-kx, -ky):
                reps.append(k)
    reps.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k))
    return reps


def _amplitudes(rng: np.random.Generator, count: int) -> np.ndarray:
    modulus = AMPLITUDE * (0.5 + 0.5 * rng.random(count))
    return modulus * np.exp(2j * np.pi * rng.random(count))


def trajectory_amplitudes(seed: int) -> dict[tuple[int, int], complex]:
    """Complex amplitudes of the slowest eigenmode at 8 seeded wavevectors."""
    rng = np.random.default_rng([seed, 1])
    reps = representatives(SEED_KMAX)
    picked = sorted(rng.choice(len(reps), TRAJECTORY_MODES, replace=False))
    amps = _amplitudes(rng, TRAJECTORY_MODES)
    return {reps[i]: complex(a) for i, a in zip(picked, amps)}


def stepping_amplitudes(seed: int) -> dict[tuple[int, int], complex]:
    """Complex amplitudes of the slowest eigenmode at all 40 representatives."""
    rng = np.random.default_rng([seed, 2])
    reps = representatives(SEED_KMAX)
    amps = _amplitudes(rng, len(reps))
    return {k: complex(a) for k, a in zip(reps, amps)}


def spectrum_config(seed: int) -> dict:
    """Dispersion-sweep configuration.  The sweep itself has no random
    input; the seed only travels in the config's own `seed` field."""
    return {
        "density": {"family": "combo", "alpha": ALPHA, "beta": BETA},
        "gravity": GRAVITY,
        "depth": DEPTH,
        "grid": {"n": 2, "N": GRID_N, "M_v": M_V},
        "kmax": SPECTRUM_KMAX,
        "seed": int(seed),
    }


def band_limited(rng: np.random.Generator, N: int = GRID_N, kmax: int = SURFACE_KMAX,
                 sup: float = SURFACE_SUP) -> np.ndarray:
    """Hermitian coefficients (numpy FFT layout, N x N) of a real field
    supported on 0 < |k|_inf <= kmax and scaled to the given sup norm."""
    c = np.zeros((N, N), dtype=complex)
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if (kx, ky) == (0, 0) or (kx, ky) < (-kx, -ky):
                continue
            a = rng.standard_normal() + 1j * rng.standard_normal()
            c[kx % N, ky % N] += a
            c[-kx % N, -ky % N] += np.conj(a)
    values = np.fft.ifft2(c).real * N * N
    return c * (sup / np.max(np.abs(values)))


def surface_triples(seed: int, count: int = SURFACE_POOL) -> list[tuple[np.ndarray, ...]]:
    """`count` independent (eta, phi, psi) coefficient triples."""
    rng = np.random.default_rng([seed, 4])
    return [tuple(band_limited(rng) for _ in range(3)) for _ in range(count)]


def spectrum_check_rows(seed: int, count: int = 8) -> list[tuple[int, int]]:
    """Wavevectors whose kept eigenpairs are re-verified after the sweep."""
    rng = np.random.default_rng([seed, 3])
    reps = representatives(SPECTRUM_KMAX)
    return [reps[i] for i in sorted(rng.choice(len(reps), count, replace=False))]
