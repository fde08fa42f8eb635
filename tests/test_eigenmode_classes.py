"""Eigenmode seeds from one eigensolve per lattice-symmetry class.

`Simulator.eigenmode_data` solves the mode operator once per class (the
octant member kc = (max |k_j|, min |k_j|) with the member's own sigma(k))
and maps the class eigenvector to k by a signed permutation Q of the
horizontal velocity blocks.  L(k) = Q L(kc) Q^T entry for entry up to one
rounding of |kappa|^2, so the mapped vector is an eigenvector at k as
accurately as the class one is at kc.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow.fourier import TorusGrid, conjugacy_representatives
from slabflow.geometry import FlattenedDomain

MODAL = ("E_eq", "D_eq", "E_imp", "D_imp")
REPS = conjugacy_representatives(4, 2)  # the 40 seedable wavevectors of `stepping`


def make_simulator(density=None, g=-1.0, n=2, N=32, M_v=24):
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_v)
    return sim.Simulator(density or dn.combo(-1.0, 0.042), g, dom)


def octant(k):
    return tuple(sorted(map(abs, k), reverse=True))


def signed_permutation(k, M_v):
    """Q with x(k) = Q x(kc), as the source row of each entry and whether it is
    negated: block j of k takes the block of kc holding |k_j|, negated where k_j < 0."""
    n = len(k)
    rows = np.arange((n + 2) * M_v + 1)
    flip = np.zeros(rows.size, dtype=bool)
    if n == 2:
        src = (1, 0) if abs(k[0]) < abs(k[1]) else (0, 1)
        for j in range(n):
            rows[j * M_v:(j + 1) * M_v] = np.arange(src[j] * M_v, (src[j] + 1) * M_v)
            flip[j * M_v:(j + 1) * M_v] = k[j] < 0
    return rows, flip


def permuted(k, M_v, v):
    rows, flip = signed_permutation(k, M_v)
    return np.where(flip, np.negative(v[rows]), v[rows])


def permutation_matrix(k, M_v):
    rows, flip = signed_permutation(k, M_v)
    Q = np.zeros((rows.size, rows.size))
    Q[np.arange(rows.size), rows] = np.where(flip, -1.0, 1.0)
    return Q


def seed_of(op, amplitude, index=0):
    """The seed of the index-th kept eigenvector of a direct solve of op."""
    v = st.solve_spectrum(op).eigenvectors[:, index].copy()
    v *= amplitude / np.max(np.abs(v))
    return v


def rayleigh(op, v):
    """lambda of an eigenvector v of lambda B v = L v, from v^H B L v / v^H B v."""
    Bv = op.B.diagonal() * v
    return np.vdot(Bv, op.L @ v) / np.vdot(Bv, v)


def seed_counting(s, reps):
    """The seeds of reps, and the wavevector of every eigensolve they made."""
    calls = []
    solve = sim.solve_spectrum
    sim.solve_spectrum = lambda op: calls.append(op.k) or solve(op)
    try:
        return {k: s.eigenmode_data(k, 1e-4) for k in reps}, calls
    finally:
        sim.solve_spectrum = solve


@pytest.fixture(scope="module")
def seeded():
    s = make_simulator()
    return (s, *seed_counting(s, REPS))


def test_one_solve_per_class(seeded):
    s, _, calls = seeded
    assert len(calls) == 16
    assert len({(octant(k), s.sigma(k)) for k in REPS}) == 16
    assert all(k == octant(k) for k in calls)


def test_seeds_match_direct_solves(seeded):
    s, states, _ = seeded
    for k in REPS:
        op = s.op(k)
        direct = sim.FlattenedState(s.dom, {k: seed_of(op, 1e-4)})
        got, want = s.functionals(states[k]), s.functionals(direct)
        for name in MODAL:
            assert abs(got[name] - want[name]) <= 1e-10 * abs(want[name]), (k, name)
        # complex lambda_min pairs tie by roundoff, so the class may keep either one first
        lam, lam_min = rayleigh(op, states[k].modes[k]), st.solve_spectrum(op).eigenvalues[0]
        assert min(abs(lam - lam_min), abs(lam - np.conj(lam_min))) <= 1e-10 * abs(lam_min), k


def test_octant_member_is_the_direct_seed_bit_for_bit(seeded):
    s, states, _ = seeded
    assert states[1, 0].X.tobytes() == seed_of(s.op((1, 0)), 1e-4).tobytes()


def test_members_are_signed_permutations_of_their_class(seeded):
    s, states, _ = seeded
    M_v = s.dom.M_v
    for k in REPS:
        kc_op = st.assemble_mode(octant(k), s.dom.b, s.sigma(k), M_v)
        Q = permutation_matrix(k, M_v)
        L, QLQ = s.op(k).L, Q @ kc_op.L @ Q.T
        # entry for entry, except that np.dot's |kappa|^2 on the velocity diagonals can
        # round differently for swapped components: one ulp at (1, +-3)
        diag = np.arange(3 * M_v)
        np.testing.assert_allclose(QLQ[diag, diag], L[diag, diag], rtol=2.0**-52, atol=0.0)
        QLQ[diag, diag] = L[diag, diag]
        np.testing.assert_array_equal(QLQ, L)
        np.testing.assert_array_equal(Q @ kc_op.B @ Q.T, s.op(k).B)
        expected = permuted(k, M_v, seed_of(kc_op, 1e-4))
        assert states[k].X.tobytes() == expected.tobytes(), k
        if s.sigma(k) == s.sigma(octant(k)):
            kc_seed = states[octant(k)].modes[octant(k)]
            assert states[k].X.tobytes() == permuted(k, M_v, kc_seed).tobytes(), k


def test_seed_order_does_not_change_the_bytes(seeded):
    _, states, _ = seeded
    s = make_simulator()
    for k in reversed(REPS):
        assert s.eigenmode_data(k, 1e-4).X.tobytes() == states[k].X.tobytes(), k


def test_out_of_range_index_reports_the_class_count():
    s = make_simulator()
    resolved = len(st.solve_spectrum(
        st.assemble_mode((1, 0), s.dom.b, s.sigma((0, 1)), s.dom.M_v)).eigenvalues)
    with pytest.raises(ValueError, match=f"{resolved} eigenpairs resolved at k=\\(0, 1\\)"):
        s.eigenmode_data((0, 1), 1e-4, resolved)
    assert set(s.eigenmode_data((0, 1), 1e-4, resolved - 1).modes) == {(0, 1)}


def test_anisotropic_sigma_splits_classes():
    s = make_simulator(dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]]), g=1.0, N=16, M_v=16)
    reps = conjugacy_representatives(2, 2)
    classes = {(octant(k), s.sigma(k)) for k in reps}
    assert len({kc for kc, _ in classes}) < len(classes)  # sigma(1, 1) != sigma(1, -1)
    states, calls = seed_counting(s, reps)
    assert len(calls) == len(classes)
    for k in reps:
        op = s.op(k)
        kc_op = st.assemble_mode(octant(k), s.dom.b, s.sigma(k), s.dom.M_v)
        assert states[k].X.tobytes() == permuted(k, s.dom.M_v, seed_of(kc_op, 1e-4)).tobytes(), k
        got = s.functionals(states[k])
        want = s.functionals(sim.FlattenedState(s.dom, {k: seed_of(op, 1e-4)}))
        for name in MODAL:
            assert abs(got[name] - want[name]) <= 1e-10 * abs(want[name]), (k, name)


def test_one_dimensional_and_mean_modes_are_their_own_class():
    s = make_simulator(dn.area(1.0), g=1.0, n=1, N=16, M_v=16)
    for k in (1, 2, -3):
        kt = (abs(k),)
        assert s.eigenmode_data(k, 1e-3).X.tobytes() == seed_of(s.op(kt), 1e-3).tobytes()
    s = make_simulator(N=16, M_v=16)
    mean = seed_of(s.op((0, 0)), 1e-3).real.astype(complex)
    assert s.eigenmode_data((0, 0), 1e-3).X.tobytes() == mean.tobytes()
