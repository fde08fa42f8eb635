"""The mass matrix B of a mode operator is diagonal with 0/1 entries, so
`solve_spectrum` may form B V as an exact row scale of V.  Its kept
eigenpairs must be those of the plain matrix-product residual filter."""

import numpy as np
import pytest
import scipy.linalg

from slabflow import densities as dn
from slabflow import stability as st

M_V = 24


@pytest.mark.parametrize("k", [(0,), (3,), (0, 0), (2, -1)])
def test_mass_is_diagonal_with_zero_one_entries(k):
    B = st.assemble_mode(k, 1.0, 0.7, 12).B
    d = np.diag(B)
    assert np.array_equal(B, np.diag(d))
    assert set(d.tolist()) <= {0.0, 1.0}
    assert 0.0 in d and 1.0 in d


def numpy_filter(op):
    """Kept eigenvalues and eigenvectors by the residual L V - (B V) w, with
    numpy matrix products."""
    w, V = scipy.linalg.eig(op.L, op.B)
    finite = np.isfinite(w)
    R = op.L @ V - (op.B @ V) * np.where(finite, w, 0.0)
    nv = np.linalg.norm(V, axis=0)
    res = np.linalg.norm(R, axis=0) / np.where(nv > 0.0, nv, 1.0)
    keep = np.flatnonzero(finite & (nv > 0.0) & (res <= st.RESIDUAL_FILTER))
    keep = keep[np.argsort(w[keep].real, kind="stable")]
    return w[keep], V[:, keep]


@pytest.mark.parametrize("k", [(0, 0)] + st.conjugacy_representatives(3))
def test_kept_set_matches_numpy_filter(k):
    density = dn.combo(-1.0, 0.042)
    op = st.assemble_mode(k, 1.0, st.mode_sigma(density, -1.0, k, 2), M_V)
    spec = st.solve_spectrum(op)
    w, V = numpy_filter(op)
    assert np.array_equal(spec.eigenvalues, w)
    assert np.array_equal(spec.eigenvectors, V)
