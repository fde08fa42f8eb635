"""Surface energy densities f(p, M) and their exact derivative tensors.

A density acts on the jet of a height function: p stands for the gradient
(a vector in R^n) and M for the Hessian (a symmetric n x n matrix).  Every
built-in family has the bending form

    f(p, M) = 1/2 * w(p) * (C(p) : M)^2 + b(p)

with closed-form derivatives up to third order, assembled by the product
rule from the derivatives of the scalar weight w, the matrix form C, the
contraction c = C(p) : M and the gradient-only well b.  Every evaluation
call computes the derivative chain of each family once, only to the order
it needs, and assembles the tensors by broadcasting.  All evaluation
routines are vectorized: p has shape (..., n) and M has shape (..., n, n),
where leading axes range over grid points.

Derivative tensor layout (leading grid axes elided):
    grad  -> fp[k],            fM[i,j]
    hess  -> fpp[k,l],         fpM[k,i,j],        fMM[i,j,k,l]
    third -> fppp[k,l,m],      fppM[k,l,i,j],     fpMM[m,i,j,k,l],   fMMM[6 slots]

fpM[k,i,j] means d^2 f / dp_k dM_ij, and similarly for the rest; equality
of mixed partials makes any other slot order a transpose of these.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EnergyDensity",
    "BendingDensity",
    "normalize_density",
    "area",
    "willmore",
    "scalar_willmore",
    "anisotropic",
    "combo",
    "DENSITY_FAMILIES",
]


def _slots_first(a, r: int):
    """Contiguous copy of `a` with its r trailing tensor slots moved to the front.

    Inside this module tensors are laid out slots first, grid axes last, so
    that broadcasting runs its inner loops along the grid points.
    """
    return np.ascontiguousarray(np.moveaxis(a, range(-r, 0), range(r)))


def _slots_last(a, r: int):
    """The public layout of a slots-first tensor with r slots (a view)."""
    return np.moveaxis(a, range(r), range(-r, 0))


def _eye(n: int, grid_ndim: int):
    """The n x n identity, broadcastable against slots-first (n, n, *grid) arrays."""
    return np.eye(n).reshape((n, n) + (1,) * grid_ndim)


def _sym2(t):
    """t_kl + t_lk on the first two slots."""
    return t + np.swapaxes(t, 0, 1)


def _sym3(t):
    """t_klm + t_kml + t_lmk on the first three slots: for t_klm = X_kl v_m
    with X symmetric, the sum over the three slots v can take."""
    return t + np.swapaxes(t, 1, 2) + np.moveaxis(t, 2, 0)


# ---------------------------------------------------------------------------
# scalar families g(p) = phi(m0 + m1 |p|^2)
# ---------------------------------------------------------------------------


class _Radial:
    """Scalar function of p through v = m0 + m1 |p|^2.

    Subclasses give phi and its v-derivatives; `chain` turns them into the
    p-derivatives of g(p) = phi(v) by the chain rule.
    """

    m0 = m1 = 1.0

    def _phi(self, v, order: int) -> list:
        """[phi(v), phi'(v), ...] up to the given order."""
        raise NotImplementedError

    def chain(self, p, order: int) -> list:
        """[g, g_k, g_kl, g_klm][:order + 1] at slots-first p of shape (n, *grid)."""
        v = self.m0 + self.m1 * np.sum(p**2, axis=0)
        phi = self._phi(v, order)
        out = [phi[0]]
        if order >= 1:
            a = 2.0 * self.m1 * phi[1]
            out.append(a * p)
        if order >= 2:
            eye = _eye(p.shape[0], p.ndim - 1)
            pp = p[:, None] * p[None, :]
            b = 4.0 * self.m1**2 * phi[2]
            out.append(a * eye + b * pp)
        if order >= 3:
            # 4 m1^2 phi'' (d_kl p_m + d_km p_l + d_lm p_k) + 8 m1^3 phi''' p_k p_l p_m
            X = b * eye + (8.0 / 3.0 * self.m1**3 * phi[3]) * pp
            out.append(_sym3(X[:, :, None] * p[None, None]))
        return out


class PolyRadial(_Radial):
    """c0 + c1 |p|^2."""

    def __init__(self, c0: float, c1: float = 0.0):
        self.m0 = float(c0)
        self.m1 = float(c1)

    def _phi(self, v, order):
        return [v, np.ones_like(v), np.zeros_like(v), np.zeros_like(v)][:order + 1]


class SqrtRadial(_Radial):
    """scale * (sqrt(m0 + m1 |p|^2) + shift).

    With (m0, m1, shift) = (1, 1, -1) this is the area well
    sigma (sqrt(1 + |p|^2) - 1).
    """

    def __init__(self, m0: float, m1: float, scale: float = 1.0, shift: float = 0.0):
        if m0 <= 0:
            raise ValueError("m0 must be positive")
        self.m0, self.m1, self.scale, self.shift = float(m0), float(m1), float(scale), float(shift)

    def _phi(self, v, order):
        s = np.sqrt(v)
        out = [self.scale * (s + self.shift)]
        d = 0.5 * self.scale / s
        for j in range(1, order + 1):
            out.append(d)
            d = (0.5 - j) * d / v
        return out


class InvSqrtRadial(_Radial):
    """scale * (m0 + m1 |p|^2)^(-1/2)."""

    def __init__(self, m0: float, m1: float, scale: float = 1.0):
        if m0 <= 0:
            raise ValueError("m0 must be positive")
        self.m0, self.m1, self.scale = float(m0), float(m1), float(scale)

    def _phi(self, v, order):
        d = self.scale / np.sqrt(v)
        out = [d]
        for j in range(1, order + 1):
            d = (0.5 - j) * d / v
            out.append(d)
        return out


class _Reciprocal(_Radial):
    """(1 + |p|^2)^(-1), the weight inside the tangent projection."""

    def _phi(self, v, order):
        d = 1.0 / v
        out = [d]
        for j in range(1, order + 1):
            d = -j * d / v
            out.append(d)
        return out


# ---------------------------------------------------------------------------
# matrix families C(p), seen through c = C(p) : M
# ---------------------------------------------------------------------------


class _Matrix:
    """Smooth symmetric-matrix function C(p).

    `chain(p, M, order)` takes slots-first p (n, *grid) and M (n, n, *grid)
    and returns (Cs, cs): Cs[j] is the j-th p-derivative of C for j < order,
    derivative slots first (C1[k,i,j], C2[k,l,i,j]), and cs[j] the j-th
    p-derivative of c = C(p) : M for j <= order.  A constant C gives None
    for every derivative.
    """

    def chain(self, p, M, order: int):
        raise NotImplementedError


class ConstMatrix(_Matrix):
    def __init__(self, C0):
        C0 = np.asarray(C0, dtype=float)
        if C0.ndim != 2 or C0.shape[0] != C0.shape[1]:
            raise ValueError("C0 must be a square matrix")
        if not np.allclose(C0, C0.T):
            raise ValueError("C0 must be symmetric")
        self.C0 = C0

    def chain(self, p, M, order):
        c = np.einsum("ij,ij...->...", self.C0, M)
        Cs = [np.broadcast_to(self.C0.reshape(self.C0.shape + (1,) * (M.ndim - 2)), M.shape)]
        return (Cs + [None] * (order - 1))[:order], [c] + [None] * order


class TangentProjection(_Matrix):
    """G(p) = I - p otimes p / (1 + |p|^2), the inverse metric of a graph.

    With w = (1 + |p|^2)^(-1) and q = p.M p the contraction is
    c = tr M - w q; for symmetric M, q has the derivatives 2 M p, 2 M and 0.
    """

    _w = _Reciprocal()

    def chain(self, p, M, order):
        w = self._w.chain(p, order)
        q2 = _sym2(M)
        q1 = np.sum(q2 * p[None], axis=1)
        q = 0.5 * np.sum(p * q1, axis=0)
        cs = [np.trace(M) - w[0] * q]
        if order >= 1:
            cs.append(-(w[1] * q + w[0] * q1))
        if order >= 2:
            cs.append(-(q * w[2] + _sym2(w[1][:, None] * q1[None]) + w[0] * q2))
        if order >= 3:
            t = w[2][:, :, None] * q1[None, None] + q2[:, :, None] * w[1][None, None]
            cs.append(-(q * w[3] + _sym3(t)))
        if order == 0:
            return [], cs
        eye = _eye(p.shape[0], p.ndim - 1)
        pp = p[:, None] * p[None, :]
        Cs = [eye - w[0] * pp]
        if order >= 2:
            # E[k,i,j] = d(p_i p_j)/dp_k = d_ki p_j + d_kj p_i
            E = eye[:, :, None] * p[None, None]
            E = E + np.swapaxes(E, 1, 2)
            Cs.append(-(w[1][:, None, None] * pp[None] + w[0] * E))
        if order >= 3:
            # d^2(p_i p_j)/dp_k dp_l = d_ki d_lj + d_kj d_li
            DD = eye[:, None, :, None] * eye[None, :, None, :]
            t = w[1][:, None, None, None] * E[None]
            Cs.append(-(w[2][:, :, None, None] * pp[None, None] + t + np.swapaxes(t, 0, 1)
                        + w[0] * (DD + np.swapaxes(DD, 2, 3))))
        return Cs, cs


class IsotropicMatrix(_Matrix):
    """C(p) = s(p) I for a scalar family s."""

    def __init__(self, scalar: _Radial, n: int):
        self.scalar = scalar
        self.n = n

    def chain(self, p, M, order):
        s = self.scalar.chain(p, order)
        eye = _eye(self.n, M.ndim - 2)
        Cs = [np.expand_dims(sj, (j, j + 1)) * eye for j, sj in enumerate(s[:order])]
        tr = np.trace(M)
        return Cs, [sj * tr for sj in s]


# ---------------------------------------------------------------------------
# the density itself
# ---------------------------------------------------------------------------


def _as_jet_arrays(p, M):
    p = np.asarray(p, dtype=float)
    M = np.asarray(M, dtype=float)
    if p.ndim == 0:
        p = p[None]
    if p.shape[-1] != M.shape[-1] or M.shape[-2] != M.shape[-1]:
        raise ValueError("incompatible jet shapes")
    return p, M


class EnergyDensity:
    """Interface: value / grad / hess / third plus a label.

    Subclasses must be normalized, f(0,0) = 0 and grad f(0,0) = 0; use
    `normalize_density` to strip the affine part of an arbitrary density.
    """

    name = "density"

    def value(self, p, M):
        raise NotImplementedError

    def grad(self, p, M):
        raise NotImplementedError

    def hess(self, p, M):
        raise NotImplementedError

    def third(self, p, M):
        raise NotImplementedError

    # -- convenience -------------------------------------------------------

    def at_origin(self, n: int):
        cache = getattr(self, "_origin_cache", None)
        if cache is None:
            cache = {}
            try:
                object.__setattr__(self, "_origin_cache", cache)
            except AttributeError:
                self._origin_cache = cache
        if n not in cache:
            p0 = np.zeros((1, n))
            M0 = np.zeros((1, n, n))
            f0 = float(self.value(p0, M0)[0])
            fp, fM = self.grad(p0, M0)
            fpp, fpM, fMM = self.hess(p0, M0)
            cache[n] = (f0, (fp[0], fM[0]), (fpp[0], fpM[0], fMM[0]))
        return cache[n]


class BendingDensity(EnergyDensity):
    """f(p, M) = 1/2 w(p) (C(p):M)^2 + b(p) with exact tensor derivatives.

    With h = w c, the M-derivatives are fM = h C, fMM = w C x C and
    fMMM = 0, and the p-derivatives follow by the product rule.  Terms that
    vanish by structure are skipped: without weight and form only the well
    contributes, and a constant form has no p-derivatives.
    """

    def __init__(self, name, weight: _Radial | None = None, form: _Matrix | None = None,
                 well: _Radial | None = None):
        if (weight is None) != (form is None):
            raise ValueError("weight and form must be supplied together")
        self.name = name
        self.weight = weight
        self.form = form
        self.well = well

    def _pieces(self, p, M, order: int):
        """Slots-first jets and the chains of w, C (to order - 1), c = C : M
        (to order) and the well b (to order, or None)."""
        p, M = _as_jet_arrays(p, M)
        p, M = _slots_first(p, 1), _slots_first(M, 2)
        w = Cs = cs = None
        if self.weight is not None:
            w = self.weight.chain(p, order)
            Cs, cs = self.form.chain(p, M, order)
        b = None if self.well is None else self.well.chain(p, order)
        return p, M, w, Cs, cs, b

    def value(self, p, M):
        p, M, w, _, cs, b = self._pieces(p, M, 0)
        f = np.zeros(p.shape[1:]) if w is None else 0.5 * w[0] * cs[0] ** 2
        return f if b is None else f + b[0]

    def grad(self, p, M):
        p, M, w, Cs, cs, b = self._pieces(p, M, 1)
        if w is None:
            fp, fM = np.zeros(p.shape), np.zeros(M.shape)
        else:
            (w, w1), (C,), (c, c1) = w, Cs, cs
            h = w * c
            fp = 0.5 * c**2 * w1
            if c1 is not None:
                fp += h * c1
            fM = h * C
        if b is not None:
            fp = fp + b[1]
        return _slots_last(fp, 1), _slots_last(fM, 2)

    def hess(self, p, M):
        p, M, w, Cs, cs, b = self._pieces(p, M, 2)
        n, grid = p.shape[0], p.shape[1:]
        if w is None:
            fpp, fpM, fMM = (np.zeros((n,) * r + grid) for r in (2, 3, 4))
        else:
            (w, w1, w2), (C, C1), (c, c1, c2) = w, Cs, cs
            fpp = 0.5 * c**2 * w2
            if c1 is None:
                fpM = (c * w1)[:, None, None] * C[None]
            else:
                h = w * c
                fpp += _sym2((c * w1 + 0.5 * w * c1)[:, None] * c1[None]) + h * c2
                fpM = (c * w1 + w * c1)[:, None, None] * C[None] + h * C1
            fMM = (w * C)[:, :, None, None] * C[None, None]
        if b is not None:
            fpp = fpp + b[2]
        return _slots_last(fpp, 2), _slots_last(fpM, 3), _slots_last(fMM, 4)

    def third(self, p, M):
        p, M, w, Cs, cs, b = self._pieces(p, M, 3)
        n, grid = p.shape[0], p.shape[1:]
        if w is None:
            fppp, fppM, fpMM = (np.zeros((n,) * r + grid) for r in (3, 4, 5))
        else:
            (w, w1, w2, w3), (C, C1, C2), (c, c1, c2, c3) = w, Cs, cs
            fppp = 0.5 * c**2 * w3
            fpMM = w1[:, None, None, None, None] * (C[:, :, None, None] * C[None, None])[None]
            if c1 is None:
                fppM = (c * w2)[:, :, None, None] * C[None, None]
            else:
                h = w * c
                h1 = c * w1 + w * c1  # d(w c)/dp
                A = c * w2 + w * c2
                B = c1[:, None] * c1[None] + c * c2
                fppp += h * c3 + _sym3(A[:, :, None] * c1[None, None] + B[:, :, None] * w1[None, None])
                # fppM = d^2(w c)/dp^2 C + (h1_l C1[k] + h1_k C1[l]) + h C2
                fppM = (A + _sym2(w1[:, None] * c1[None]))[:, :, None, None] * C[None, None]
                s = h1[None, :, None, None] * C1[:, None]
                fppM += s
                fppM += np.swapaxes(s, 0, 1)
                fppM += h * C2
                # fpMM += w (C1[m,i,j] C[k,l] + C[i,j] C1[m,k,l])
                u = (w * C1)[:, :, :, None, None] * C[None, None, None]
                fpMM += u
                fpMM += np.swapaxes(np.swapaxes(u, 1, 3), 2, 4)
        if b is not None:
            fppp = fppp + b[3]
        fMMM = np.zeros((n,) * 6 + grid)
        return (_slots_last(fppp, 3), _slots_last(fppM, 4), _slots_last(fpMM, 5),
                _slots_last(fMMM, 6))


class NormalizedDensity(EnergyDensity):
    """base(p, M) - base(0,0) - grad_p base(0,0).p - grad_M base(0,0):M."""

    def __init__(self, base: EnergyDensity, n: int):
        self.base = base
        self.name = f"normalized({getattr(base, 'name', 'density')})"
        self._n = n
        p0 = np.zeros((1, n))
        M0 = np.zeros((1, n, n))
        self._f0 = np.asarray(base.value(p0, M0))[0]
        fp0, fM0 = base.grad(p0, M0)
        self._fp0 = np.asarray(fp0)[0]
        self._fM0 = np.asarray(fM0)[0]

    def value(self, p, M):
        p, M = _as_jet_arrays(p, M)
        lin = np.einsum("k,...k->...", self._fp0, p) + np.einsum("ij,...ij->...", self._fM0, M)
        return self.base.value(p, M) - self._f0 - lin

    def grad(self, p, M):
        p, M = _as_jet_arrays(p, M)
        fp, fM = self.base.grad(p, M)
        return fp - self._fp0, fM - self._fM0

    def hess(self, p, M):
        return self.base.hess(p, M)

    def third(self, p, M):
        return self.base.third(p, M)


def normalize_density(raw: EnergyDensity, n: int = 2) -> EnergyDensity:
    """Strip the null-Lagrangian affine part so f(0,0) = 0, grad f(0,0) = 0."""
    return NormalizedDensity(raw, n)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def area(sigma: float = 1.0) -> BendingDensity:
    """Surface tension: f = sigma (sqrt(1 + |p|^2) - 1)."""
    return BendingDensity(f"area({sigma:g})", well=SqrtRadial(1.0, 1.0, sigma, -1.0))


def willmore() -> BendingDensity:
    """Bending of a graph: f = 1/2 (1+|p|^2)^(-1/2) ((I - p p/(1+|p|^2)) : M)^2."""
    return BendingDensity("willmore", weight=InvSqrtRadial(1.0, 1.0, 1.0), form=TangentProjection())


def scalar_willmore(m0: float = 1.0, m1: float = 0.0, n: int = 2) -> BendingDensity:
    """f = 1/2 m(p) (tr M)^2 with m(p) = m0 + m1 |p|^2, m0 > 0."""
    if m0 <= 0:
        raise ValueError("m(0) must be positive")
    return BendingDensity(
        f"scalar-willmore(m0={m0:g},m1={m1:g})",
        weight=PolyRadial(m0, m1),
        form=ConstMatrix(np.eye(n)),
    )


def anisotropic(C0=None, m0: float = None, m1: float = None, n: int = 2) -> BendingDensity:
    """f = 1/2 (C(p) : M)^2.

    With a constant matrix C0 (positive definite at the origin) or, if m0/m1
    are given, with C(p) = sqrt(m0 + m1 |p|^2) I, which reproduces the
    scalar bending family.
    """
    if (C0 is None) == (m0 is None) or (C0 is not None and m1 is not None):
        raise ValueError("supply exactly one of C0 or (m0, m1)")
    if C0 is not None:
        C0 = np.asarray(C0, dtype=float)
        if C0.shape != (n, n):
            raise ValueError(f"C0 must be an {n}x{n} matrix, got shape {C0.shape}")
        if np.any(np.linalg.eigvalsh(C0) <= 0):
            raise ValueError("C0 must be positive definite")
        return BendingDensity("anisotropic", weight=PolyRadial(1.0), form=ConstMatrix(C0))
    m1 = 0.0 if m1 is None else m1
    return BendingDensity(
        f"anisotropic(m0={m0:g},m1={m1:g})",
        weight=PolyRadial(1.0),
        form=IsotropicMatrix(SqrtRadial(m0, m1), n),
    )


def combo(alpha: float, beta: float) -> BendingDensity:
    """alpha * area(1) density + beta * willmore density (beta > 0)."""
    if beta <= 0:
        raise ValueError("bending coefficient beta must be positive")
    return BendingDensity(
        f"combo(alpha={alpha:g},beta={beta:g})",
        weight=InvSqrtRadial(1.0, 1.0, beta),
        form=TangentProjection(),
        well=SqrtRadial(1.0, 1.0, alpha, -1.0),
    )


def _build_from_params(params: dict, n: int = 2) -> EnergyDensity:
    params = dict(params)
    family = params.pop("family")
    if family == "area":
        return area(params.pop("sigma", 1.0))
    if family == "willmore":
        return willmore()
    if family == "scalar-willmore":
        return scalar_willmore(params.pop("m0", 1.0), params.pop("m1", 0.0), n=n)
    if family == "anisotropic":
        return anisotropic(params.pop("matrix", None), params.pop("m0", None),
                           params.pop("m1", None), n=n)
    if family == "combo":
        return combo(params.pop("alpha"), params.pop("beta"))
    raise ValueError(f"unknown density family {family!r}")


DENSITY_FAMILIES = {
    "area": {"sigma"},
    "willmore": set(),
    "scalar-willmore": {"m0", "m1"},
    "anisotropic": {"matrix", "m0", "m1"},
    "combo": {"alpha", "beta"},
}
