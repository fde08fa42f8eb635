"""The Chebyshev tail of eigenmode profiles separates resolved from unresolved pairs.

The tail of a mode is the largest of the last four Chebyshev coefficients of
its u and p profiles over the largest coefficient of any of them.  It is taken
here by a DCT-I of the Lobatto samples written with numpy's FFT, sharing no
code with the solver, as an oracle for a resolution verdict on vertical
profiles: eigenpairs well inside the resolved band have tails near roundoff,
the fastest ones have tails of order one.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import stability as st
from slabflow.surface_energy import hessian_symbol

M_V = 24


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients a_k with v(x_j) = sum_k a_k T_k(x_j) on the descending
    Lobatto nodes x_j = cos(pi j / (m - 1)), along the last axis."""
    m = values.shape[-1]
    even = np.concatenate([values, values[..., -2:0:-1]], axis=-1)
    a = np.fft.fft(even, axis=-1)[..., :m] / (m - 1)
    a[..., [0, -1]] /= 2.0
    return a


def test_dct_recovers_a_chebyshev_series():
    x = np.cos(np.pi * np.arange(M_V) / (M_V - 1))
    a = np.zeros(M_V)
    a[[0, 3, 7]] = [0.5, -2.0, 1e-3]
    assert np.allclose(chebyshev_coefficients(np.polynomial.chebyshev.chebval(x, a)), a,
                       rtol=0.0, atol=1e-13)


def tails(spec: st.Spectrum, layout: st.ModeLayout) -> np.ndarray:
    u, p, _ = layout.blocks(spec.eigenvectors.T)
    coeffs = np.abs(chebyshev_coefficients(np.concatenate([u, p[:, None]], axis=1)))
    return np.max(coeffs[..., -4:], axis=(1, 2)) / np.max(coeffs, axis=(1, 2))


@pytest.mark.parametrize("k", [(1, 0), (1, 1), (2, 0)])
def test_tail_separates_resolved_from_unresolved_eigenpairs(k):
    op = st.assemble_mode(k, 1.0, hessian_symbol(dn.area(1.0), 1.0, k), M_V)
    spec = st.solve_spectrum(op)
    tail = tails(spec, op.layout)
    size = np.abs(spec.eigenvalues)
    slow, fast = size <= 250.0, size >= 900.0
    assert slow.any() and fast.any()
    assert np.max(tail[slow]) <= 1e-6
    assert np.min(tail[fast]) >= 1e-3
