"""One eigensolve per mirror class in `stability.mode_sweep`.

The sweep solves the pencil once per (|k_1| .. |k_n|, sigma(k)) and hands the
eigenvalues to both representatives (a, b) and (a, -b).  L(a, -b) = S L(a, b) S
entry for entry, S = diag(+-1) negating the u_2 block, and zggev maps that
sign similarity to its outputs: at M_v = 24 the eigenvalues agree up to the
sign of a zero, and the two that `dispersion` prints agree bit for bit.  The
sweep's saving rests on that LAPACK behaviour, so the pin below must fail,
not be loosened, if a LAPACK build stops providing it.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import stability as st
from slabflow.fourier import conjugacy_representatives

CASES = {
    # name: (density, g, kmax, M_v, n, rows, solves)
    "combo": (dn.combo(-1.0, 0.042), -1.0, 4, 24, 2, 41, 25),
    "anisotropic": (dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]]), 1.0, 3, 16, 2, 25, 25),
    "n1": (dn.area(1.0), 1.0, 6, 24, 1, 7, 7),
}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def direct(density, g, k, M_v, n):
    return st.solve_spectrum(st.assemble_mode(k, 1.0, st.mode_sigma(density, g, k, n), M_v))


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_equal_direct_solves(case, monkeypatch):
    density, g, kmax, M_v, n, rows, solves = CASES[case]
    solve, calls = st.solve_spectrum, []

    def counted(op):
        calls.append(op.k)
        return solve(op)

    monkeypatch.setattr(st, "solve_spectrum", counted)
    modes, eigs = st.mode_sweep(density, g, 1.0, kmax, M_v, n)
    monkeypatch.undo()
    assert (len(modes), len(calls)) == (rows, solves)
    for kt, w in zip(modes, eigs):
        ref = direct(density, g, kt, M_v, n).eigenvalues
        assert np.array_equal(w, ref), kt
        assert np.array_equal(bits(w[:2]), bits(ref[:2])), kt  # the digits dispersion prints
        assert not w.flags.writeable


def test_mirror_pencils_solve_alike():
    density, g, M_v = dn.combo(-1.0, 0.042), -1.0, 24
    lay = st.ModeLayout(2, M_v)
    s = np.ones(lay.dim)
    s[lay.u(1)] = -1.0
    pairs = [(k, (k[0], -k[1])) for k in conjugacy_representatives(3, 2) if k[0] > 0 < k[1]]
    assert len(pairs) == 9
    for k, m in pairs:
        sigma = st.mode_sigma(density, g, k, 2)
        assert sigma.hex() == st.mode_sigma(density, g, m, 2).hex()
        op, mirror = st.assemble_mode(k, 1.0, sigma, M_v), st.assemble_mode(m, 1.0, sigma, M_v)
        assert np.array_equal(mirror.L, s[:, None] * op.L * s) and np.array_equal(mirror.B, op.B)
        a, b = st.solve_spectrum(op), st.solve_spectrum(mirror)
        assert np.array_equal(a.eigenvalues, b.eigenvalues), k  # bitwise up to the sign of 0
        assert np.array_equal(bits(a.eigenvalues[:2]), bits(b.eigenvalues[:2])), k
        assert np.array_equal(bits(a.residuals), bits(b.residuals)), k
        Sv = s[:, None] * a.eigenvectors
        for j in range(Sv.shape[1]):
            v = b.eigenvectors[:, j]
            assert np.array_equal(v, Sv[:, j]) or np.array_equal(v, -Sv[:, j]), (k, j)
