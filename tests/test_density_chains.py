"""Density tensors against an independent einsum product rule.

The reference below evaluates every family the direct way: full derivative
tensors of the scalar weight and of the matrix form up to third order (the
5-index third derivative of C included), contracted with M by `einsum`,
and the product rule written as three-operand `einsum`s.  The densities
module instead evaluates one chain per family and call and assembles the
tensors by broadcasting; both must agree to roundoff on random jets with
|p| up to 2, for every built-in family, their normalized forms and n = 1.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from test_densities import ALL_FAMILIES

# ---------------------------------------------------------------------------
# reference: family derivatives as full tensors, leading grid axes
# ---------------------------------------------------------------------------


def sym3(eye, p):
    """delta_kl p_m + delta_km p_l + delta_lm p_k."""
    t = eye[..., :, :, None] * p[..., None, None, :]
    return t + np.swapaxes(t, -1, -2) + np.swapaxes(t, -1, -3)


def scalar_tensors(g, p):
    """[g, g_k, g_kl, g_klm] of a radial scalar family."""
    n = p.shape[-1]
    eye = np.broadcast_to(np.eye(n), p.shape[:-1] + (n, n))
    pp = p[..., :, None] * p[..., None, :]
    ppp = pp[..., None] * p[..., None, None, :]
    if isinstance(g, dn.PolyRadial):
        c0, c1 = g.m0, g.m1
        return [c0 + c1 * np.sum(p**2, axis=-1), 2.0 * c1 * p, 2.0 * c1 * eye.copy(),
                np.zeros(p.shape[:-1] + (n, n, n))]
    v = g.m0 + g.m1 * np.sum(p**2, axis=-1)
    m1, s = g.m1, g.scale
    v1, v2, v3 = v[..., None], v[..., None, None], v[..., None, None, None]
    if isinstance(g, dn.SqrtRadial):
        return [s * (np.sqrt(v) + g.shift),
                s * m1 * p * v1**-0.5,
                s * (m1 * eye * v2**-0.5 - m1**2 * pp * v2**-1.5),
                s * (-m1**2 * sym3(eye, p) * v3**-1.5 + 3.0 * m1**3 * ppp * v3**-2.5)]
    if isinstance(g, dn.InvSqrtRadial):
        return [s * v**-0.5,
                -s * m1 * p * v1**-1.5,
                s * (-m1 * eye * v2**-1.5 + 3.0 * m1**2 * pp * v2**-2.5),
                s * (3.0 * m1**2 * sym3(eye, p) * v3**-2.5 - 15.0 * m1**3 * ppp * v3**-3.5)]
    raise TypeError(type(g))


def matrix_tensors(C, p):
    """[C_ij, C_ij,k, C_ij,kl, C_ij,klm] of a matrix family (derivative slots last)."""
    n = p.shape[-1]
    base = p.shape[:-1]
    eye = np.eye(n)
    if isinstance(C, dn.ConstMatrix):
        return [np.broadcast_to(C.C0, base + (n, n)).copy()] + [
            np.zeros(base + (n,) * r) for r in (3, 4, 5)]
    if isinstance(C, dn.IsotropicMatrix):
        s = scalar_tensors(C.scalar, p)
        return [s[0][..., None, None] * eye,
                np.einsum("ij,...k->...ijk", eye, s[1]),
                np.einsum("ij,...kl->...ijkl", eye, s[2]),
                np.einsum("ij,...klm->...ijklm", eye, s[3])]
    assert isinstance(C, dn.TangentProjection)
    # w = (1 + |p|^2)^(-1) to third order
    u = 1.0 + np.sum(p**2, axis=-1)
    pp = p[..., :, None] * p[..., None, :]
    ppp = pp[..., None] * p[..., None, None, :]
    w = u**-1.0
    w1 = -2.0 * p * u[..., None] ** -2.0
    w2 = -2.0 * eye * u[..., None, None] ** -2.0 + 8.0 * pp * u[..., None, None] ** -3.0
    w3 = (8.0 * sym3(np.broadcast_to(eye, base + (n, n)), p) * u[..., None, None, None] ** -3.0
          - 48.0 * ppp * u[..., None, None, None] ** -4.0)
    C0 = eye - w[..., None, None] * pp
    C1 = -(pp[..., None] * w1[..., None, None, :]
           + w[..., None, None, None] * (eye[:, None, :] * p[..., None, :, None]
                                         + eye[None, :, :] * p[..., :, None, None]))
    h2 = pp[..., None, None] * w2[..., None, None, :, :]
    for a, b in (("k", "l"), ("l", "k")):
        h2 = h2 + np.einsum(f"...{a},i{b},...j->...ijkl", w1, eye, p)
        h2 = h2 + np.einsum(f"...{a},j{b},...i->...ijkl", w1, eye, p)
    h2 = h2 + np.einsum("...,ik,jl->...ijkl", w, eye, eye)
    h2 = h2 + np.einsum("...,jk,il->...ijkl", w, eye, eye)
    h3 = np.einsum("...i,...j,...klm->...ijklm", p, p, w3)
    for pair, single in (("kl", "m"), ("km", "l"), ("lm", "k")):
        h3 = h3 + np.einsum(f"...{pair},i{single},...j->...ijklm", w2, eye, p)
        h3 = h3 + np.einsum(f"...{pair},j{single},...i->...ijklm", w2, eye, p)
    for single, (a, b) in (("k", "lm"), ("l", "km"), ("m", "kl")):
        h3 = h3 + np.einsum(f"...{single},i{a},j{b}->...ijklm", w1, eye, eye)
        h3 = h3 + np.einsum(f"...{single},j{a},i{b}->...ijklm", w1, eye, eye)
    return [C0, C1, -h2, -h3]


def reference(f, p, M):
    """(value, grad, hess, third) of a built-in or normalized density."""
    if isinstance(f, dn.NormalizedDensity):
        n = p.shape[-1]
        f0, (fp0, fM0), _, _ = reference(f.base, np.zeros((1, n)), np.zeros((1, n, n)))
        val, (fp, fM), hess, third = reference(f.base, p, M)
        lin = np.einsum("k,...k->...", fp0[0], p) + np.einsum("ij,...ij->...", fM0[0], M)
        return val - f0[0] - lin, (fp - fp0[0], fM - fM0[0]), hess, third
    n = p.shape[-1]
    base = p.shape[:-1]
    if f.weight is None:
        w = [np.zeros(base + (n,) * r) for r in range(4)]
        C = [np.zeros(base + (n,) * r) for r in range(2, 6)]
    else:
        w = scalar_tensors(f.weight, p)
        C = matrix_tensors(f.form, p)
    b = scalar_tensors(f.well, p) if f.well is not None else [0.0] * 4
    w, w1, w2, w3 = w
    Cv, C1, C2, C3 = C
    c = np.einsum("...ij,...ij->...", Cv, M)
    c1 = np.einsum("...ijk,...ij->...k", C1, M)
    c2 = np.einsum("...ijkl,...ij->...kl", C2, M)
    c3 = np.einsum("...ijklm,...ij->...klm", C3, M)

    val = 0.5 * w * c**2 + b[0]
    fp = 0.5 * w1 * (c**2)[..., None] + (w * c)[..., None] * c1 + b[1]
    fM = (w * c)[..., None, None] * Cv
    c2d = c[..., None, None]
    fpp = (0.5 * (c**2)[..., None, None] * w2
           + c2d * (np.einsum("...k,...l->...kl", w1, c1) + np.einsum("...l,...k->...kl", w1, c1))
           + w[..., None, None] * (np.einsum("...k,...l->...kl", c1, c1) + c2d * c2) + b[2])
    fpM = (np.einsum("...k,...ij->...kij", w1 * c[..., None], Cv)
           + np.einsum("...,...k,...ij->...kij", w, c1, Cv)
           + np.einsum("...,...ijk->...kij", w * c, C1))
    fMM = np.einsum("...,...ij,...kl->...ijkl", w, Cv, Cv)

    def cyc(a, b_, spec):
        return sum(np.einsum(s, a, b_) for s in spec)

    pair_single = ("...kl,...m->...klm", "...km,...l->...klm", "...lm,...k->...klm")
    single_pair = ("...k,...lm->...klm", "...l,...km->...klm", "...m,...kl->...klm")
    cc = np.einsum("...l,...m->...lm", c1, c1) + c2d * c2
    fppp = (0.5 * (c**2)[..., None, None, None] * w3
            + c[..., None, None, None] * cyc(w2, c1, pair_single)
            + cyc(w1, cc, single_pair)
            + w[..., None, None, None] * (cyc(c2, c1, pair_single) + c[..., None, None, None] * c3)
            + b[3])
    fppM = (np.einsum("...kl,...,...ij->...klij", w2, c, Cv)
            + np.einsum("...l,...k,...ij->...klij", w1, c1, Cv)
            + np.einsum("...l,...,...ijk->...klij", w1, c, C1)
            + np.einsum("...k,...l,...ij->...klij", w1, c1, Cv)
            + np.einsum("...,...kl,...ij->...klij", w, c2, Cv)
            + np.einsum("...,...l,...ijk->...klij", w, c1, C1)
            + np.einsum("...k,...,...ijl->...klij", w1, c, C1)
            + np.einsum("...,...k,...ijl->...klij", w, c1, C1)
            + np.einsum("...,...ijkl->...klij", w * c, C2))
    fpMM = (np.einsum("...m,...ij,...kl->...mijkl", w1, Cv, Cv)
            + np.einsum("...,...ijm,...kl->...mijkl", w, C1, Cv)
            + np.einsum("...,...ij,...klm->...mijkl", w, Cv, C1))
    fMMM = np.zeros(base + (n,) * 6)
    return val, (fp, fM), (fpp, fpM, fMM), (fppp, fppM, fpMM, fMMM)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

N1_FAMILIES = [
    dn.area(0.7),
    dn.willmore(),
    dn.scalar_willmore(1.2, -0.3, n=1),
    dn.anisotropic(C0=[[2.0]], n=1),
    dn.anisotropic(m0=1.5, m1=0.5, n=1),
    dn.combo(-1.0, 0.5),
]

CASES = ([(f, 2) for f in ALL_FAMILIES]
         + [(dn.normalize_density(f, n=2), 2) for f in ALL_FAMILIES]
         + [(f, 1) for f in N1_FAMILIES]
         + [(dn.normalize_density(f, n=1), 1) for f in N1_FAMILIES])


def case_id(case):
    f, n = case
    return f"{f.name}-n{n}"


def random_jets(n, size=(7, 5), seed=0):
    """Jets on a 2-D batch of points, |p| uniform in [0, 2], M symmetric."""
    rng = np.random.default_rng(seed + 10 * n)
    p = rng.standard_normal(size + (n,))
    p *= (2.0 * rng.random(size) / np.linalg.norm(p, axis=-1))[..., None]
    M = rng.standard_normal(size + (n, n))
    return p, 0.5 * (M + np.swapaxes(M, -1, -2))


def flat(parts):
    """value, grad, hess, third as one list of named tensors."""
    val, grad, hess, third = parts
    names = ["value", "fp", "fM", "fpp", "fpM", "fMM", "fppp", "fppM", "fpMM", "fMMM"]
    return list(zip(names, [val, *grad, *hess, *third]))


def evaluate(f, p, M):
    return f.value(p, M), f.grad(p, M), f.hess(p, M), f.third(p, M)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_tensors_match_reference(case):
    f, n = case
    for seed in range(3):
        p, M = random_jets(n, seed=seed)
        for (name, got), (_, ref) in zip(flat(evaluate(f, p, M)), flat(reference(f, p, M))):
            got, ref = np.asarray(got), np.asarray(ref)
            assert got.shape == ref.shape, name
            scale = np.max(np.abs(ref))
            # a tensor that vanishes identically shows only roundoff in the reference
            bound = 1e-13 * scale if scale > 1e-12 else 1e-14
            assert np.max(np.abs(got - ref)) <= bound, (name, np.max(np.abs(got - ref)), scale)


def test_single_jet_and_jet_at_origin():
    # no grid axes at all, and the origin where every chain is exact
    for f in ALL_FAMILIES:
        p, M = random_jets(2, size=(), seed=5)
        for (name, got), (_, ref) in zip(flat(evaluate(f, p, M)), flat(reference(f, p, M))):
            assert np.shape(got) == np.shape(ref), name
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        f0, (fp0, fM0), (fpp0, fpM0, fMM0) = f.at_origin(2)
        _, (rp, rM), (rpp, rpM, rMM), _ = reference(f, np.zeros((1, 2)), np.zeros((1, 2, 2)))
        for got, ref in ((fpp0, rpp[0]), (fpM0, rpM[0]), (fMM0, rMM[0])):
            assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# one chain per family and call
# ---------------------------------------------------------------------------


def chain_families(f):
    """Every object of f whose `chain` a density call may evaluate."""
    f = getattr(f, "base", f)
    found = [f.weight, f.form, f.well]
    found += [getattr(f.form, "scalar", None), getattr(f.form, "_w", None)]
    return [obj for obj in found if obj is not None]


@pytest.mark.parametrize("f", ALL_FAMILIES + [dn.normalize_density(dn.combo(-1.0, 0.5))],
                         ids=lambda f: f.name)
def test_each_chain_evaluated_once_per_call(f, monkeypatch):
    calls = []
    for obj in chain_families(f):
        original = obj.chain

        def counted(*args, _obj=obj, _original=original):
            calls.append((id(_obj), args[-1]))
            return _original(*args)

        monkeypatch.setattr(obj, "chain", counted)
    p, M = random_jets(2, seed=9)
    for order, method in enumerate(("value", "grad", "hess", "third")):
        calls.clear()
        getattr(f, method)(p, M)
        ids = [i for i, _ in calls]
        assert len(ids) == len(set(ids)), (method, calls)
        assert set(ids) == {id(obj) for obj in chain_families(f)}, method
        assert {o for _, o in calls} == {order}, (method, calls)

