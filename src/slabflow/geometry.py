"""Flattened-slab geometry: the map from the fixed strip to the fluid domain.

The fixed domain is T^n x (-b, 0), discretized spectrally in the horizontal
and by Chebyshev-Gauss-Lobatto collocation in the vertical.  A surface
elevation eta induces the flattening map

    Phi = id + chi(x3) (E eta) e3,      chi(x3) = 1 + x3 / b,

where E is the per-mode exponential (harmonic) extension.  All geometric
coefficients (J = det grad Phi, A = (grad Phi)^(-T), the transformed
normals) have exact per-mode expressions here, so the identity residuals
measure only the vertical interpolation error of exponential profiles.

Bulk fields store physical samples with component axes first and the
vertical axis last: scalar (*grid, Mv), vector (c, *grid, Mv), matrix
(c, c, *grid, Mv) with c = n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .densities import EnergyDensity
from .fourier import (SpectralField, TorusGrid, axis_multipliers, band_wavevector,
                      coeffs_to_samples, derivative_multiplier, sqrt_neg_laplacian)
from . import surface_energy as se

__all__ = [
    "FlattenedDomain",
    "BulkField",
    "DomainDegenerate",
    "harmonic_extension",
    "GeometricCoefficients",
    "geometric_coefficients",
    "full_gradient",
    "geo_gradient",
    "geo_symgrad",
    "geo_divergence",
    "piola_residual",
    "div_theorem_residual",
    "geometric_forms",
    "pair_forms",
    "geo_energy",
    "geo_dissipation",
    "bulk_integral",
    "bulk_sobolev_norm",
]


MIN_J_FLOOR = 1e-6  # geometric_coefficients rejects maps with min J at or below this


class DomainDegenerate(RuntimeError):
    """The flattening map fails to be a diffeomorphism (min J too small)."""

    def __init__(self, min_j: float):
        super().__init__(f"flattening map degenerates: min J = {min_j:.3e}")
        self.min_j = min_j


def chebyshev_lobatto(m: int) -> tuple[np.ndarray, np.ndarray]:
    """CGL points on [-1, 1] (descending) and the differentiation matrix."""
    if m < 2:
        raise ValueError("need at least two collocation points")
    j = np.arange(m)
    x = np.cos(np.pi * j / (m - 1))
    c = np.ones(m)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** j
    X = np.tile(x, (m, 1)).T
    dX = X - X.T + np.eye(m)
    D = np.outer(c, 1.0 / c) / dX
    D -= np.diag(D.sum(axis=1))
    return x, D


def clenshaw_curtis(m: int) -> np.ndarray:
    """Quadrature weights for the CGL points on [-1, 1]."""
    N = m - 1
    theta = np.pi * np.arange(m) / N
    w = np.zeros(m)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1.0)
        v -= np.cos(N * theta[ii]) / (N**2 - 1.0)
    else:
        w[0] = w[N] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1.0)
    w[ii] = 2.0 * v / N
    return w


@dataclass(frozen=True)
class FlattenedDomain:
    """T^n x (-b, 0): spectral horizontal grid, CGL vertical collocation."""

    b: float
    horizontal: TorusGrid
    M_v: int

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("depth b must be positive")
        if self.M_v < 8:
            raise ValueError("need M_v >= 8 vertical points")

    @property
    def n(self) -> int:
        return self.horizontal.n

    @property
    def ncomp(self) -> int:
        """Spatial dimension of the slab (horizontal + vertical)."""
        return self.n + 1

    @cached_property
    def x3(self) -> np.ndarray:
        """Vertical nodes, strictly decreasing from 0 to -b, endpoints included."""
        xi, _ = chebyshev_lobatto(self.M_v)
        return self.b * (xi - 1.0) / 2.0

    @cached_property
    def D3(self) -> np.ndarray:
        """Differentiation matrix in x3."""
        _, D = chebyshev_lobatto(self.M_v)
        return (2.0 / self.b) * D

    @cached_property
    def w3(self) -> np.ndarray:
        """Quadrature weights for int_{-b}^0 dx3 at the vertical nodes."""
        return clenshaw_curtis(self.M_v) * self.b / 2.0

    @cached_property
    def chi(self) -> np.ndarray:
        """Cutoff chi(x3) = 1 + x3/b: one on top, zero at the bottom."""
        return 1.0 + self.x3 / self.b


@dataclass(frozen=True)
class BulkField:
    """Real field on the strip; component axes lead, vertical axis is last."""

    dom: FlattenedDomain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expect_tail = self.dom.horizontal.shape + (self.dom.M_v,)
        if v.shape[-len(expect_tail):] != expect_tail:
            raise ValueError(f"bulk field shape {v.shape} does not end in {expect_tail}")
        if v.ndim - len(expect_tail) not in (0, 1, 2):
            raise ValueError("bulk fields are scalars, vectors, or matrices")
        object.__setattr__(self, "values", v)

    @property
    def rank(self) -> int:
        return self.values.ndim - self.dom.n - 1


# ---------------------------------------------------------------------------
# harmonic extension and geometric coefficients
# ---------------------------------------------------------------------------


def _extension(coeffs: np.ndarray, dom: FlattenedDomain) -> np.ndarray:
    """Samples (..., *grid, Mv) of the harmonic extensions of a coefficient stack.

    `coeffs` holds Hermitian coefficient arrays, shape (..., *grid); each mode
    is carried down by exp(2 pi |k| x3) and the whole stack is synthesized in
    one call.
    """
    def profile(kk):
        kmod = 2.0 * np.pi * np.sqrt(np.sum(kk.astype(float) ** 2, axis=0))
        return np.exp(kmod[..., None] * dom.x3)

    return coeffs_to_samples(coeffs, dom.horizontal, profile)


def harmonic_extension(eta: SpectralField, dom: FlattenedDomain) -> BulkField:
    """E eta: per-mode profile eta_hat(k) exp(2 pi |k| x3); constant for k = 0."""
    return BulkField(dom, _extension(eta.coeffs, dom))


@dataclass(frozen=True)
class GeometricCoefficients:
    """Flattening map data: J and grad(chi E eta); A = (grad Phi)^(-T), Phi, grad Phi and
    normals on demand."""

    dom: FlattenedDomain
    _ext: np.ndarray          # E eta, (*grid, Mv)
    J: BulkField              # scalar Jacobian
    grad_chi_ext: BulkField   # grad(chi E eta), (n+1, *grid, Mv)
    min_j: float

    @cached_property
    def A(self) -> BulkField:
        """(grad Phi)^(-T), (n+1, n+1, *grid, Mv): the identity minus grad(chi E eta) / J
        in column n."""
        n = self.dom.n
        grad = self.grad_chi_ext.values
        A = np.zeros((n + 1,) + grad.shape)
        A[range(n + 1), range(n + 1)] = 1.0
        A[:, n] -= grad / self.J.values
        return BulkField(self.dom, A)

    @cached_property
    def Phi(self) -> BulkField:
        """Mapped positions id + chi (E eta) e3, (n+1, *grid, Mv)."""
        dom = self.dom
        x = np.broadcast_to(dom.horizontal.nodes()[..., None], (dom.n,) + self._ext.shape)
        return BulkField(dom, np.concatenate([x, (dom.x3 + dom.chi * self._ext)[None]]))

    @cached_property
    def grad_Phi(self) -> BulkField:
        """I + e3 x grad(chi E eta), (n+1, n+1, *grid, Mv)."""
        nc = self.dom.ncomp
        gP = np.zeros((nc, nc) + self._ext.shape)
        gP[range(nc), range(nc)] = 1.0
        gP[-1] += self.grad_chi_ext.values
        return BulkField(self.dom, gP)

    @cached_property
    def nu_top(self) -> np.ndarray:
        """(-grad eta, 1) on the top boundary, (n+1, *grid): there chi = 1, x3 = 0."""
        nu = -self.grad_chi_ext.values[..., 0]
        nu[-1] = 1.0
        return nu

    @property
    def nu_bot(self) -> np.ndarray:
        """-e3 on the bottom boundary."""
        return np.append(np.zeros(self.dom.n), -1.0)


def geometric_coefficients(eta: SpectralField, dom: FlattenedDomain) -> GeometricCoefficients:
    """All coefficients of Phi = id + chi (E eta) e3, exactly per mode.

    E d_i eta, E sqrt(-lap) eta and E eta come from one stacked extension.
    Raises DomainDegenerate if min J <= MIN_J_FLOOR (the map would stop
    being a diffeomorphism, or A would blow up in tests).
    """
    n = dom.n
    ext = _extension(np.stack([m * eta.coeffs for m in axis_multipliers(dom.horizontal)]
                              + [sqrt_neg_laplacian(eta).coeffs, eta.coeffs]), dom)
    grad = dom.chi * ext[:n + 1]  # grad(chi E eta) = chi E (grad eta, sqrt(-lap) eta)
    grad[n] += ext[n + 1] / dom.b  # + (d3 chi) E eta

    J = 1.0 + grad[n]
    min_j = float(np.min(J))
    if min_j <= MIN_J_FLOOR:
        raise DomainDegenerate(min_j)

    return GeometricCoefficients(dom=dom, _ext=ext[n + 1], J=BulkField(dom, J),
                                 grad_chi_ext=BulkField(dom, grad), min_j=min_j)


# ---------------------------------------------------------------------------
# differential operators on bulk fields
# ---------------------------------------------------------------------------


def _horizontal_derivative(values: np.ndarray, dom: FlattenedDomain, axis: int) -> np.ndarray:
    """Spectral d/dx_axis per vertical level (axis < n)."""
    grid = dom.horizontal
    haxes = tuple(range(-1 - grid.n, -1))
    c = np.fft.fftn(values, axes=haxes) * axis_multipliers(grid)[axis][..., None]
    return np.fft.ifftn(c, axes=haxes).real


def _vertical_derivative(values: np.ndarray, dom: FlattenedDomain) -> np.ndarray:
    return np.einsum("ab,...b->...a", dom.D3, values)


def full_gradient(v: BulkField) -> BulkField:
    """grad v with components stacked first: (grad v)[i, ...] = d_i v[...]."""
    dom = v.dom
    nc = dom.ncomp
    out = np.zeros((nc,) + v.values.shape)
    for i in range(dom.n):
        out[i] = _horizontal_derivative(v.values, dom, i)
    out[dom.n] = _vertical_derivative(v.values, dom)
    return BulkField(dom, out)


def geo_gradient(v: BulkField, A: BulkField) -> BulkField:
    """A-gradient: (grad^A v)_ij = A_ik d_k v_j (vector v), or A_ik d_k v."""
    g = full_gradient(v).values
    if v.rank == 0:
        return BulkField(v.dom, np.einsum("ik...,k...->i...", A.values, g))
    if v.rank == 1:
        return BulkField(v.dom, np.einsum("ik...,kj...->ij...", A.values, g))
    raise ValueError("geo_gradient expects a scalar or vector field")


def geo_symgrad(v: BulkField, A: BulkField) -> BulkField:
    """D^A v = grad^A v + (grad^A v)^T."""
    G = geo_gradient(v, A).values
    return BulkField(v.dom, G + np.swapaxes(G, 0, 1))


def geo_divergence(v: BulkField, A: BulkField) -> BulkField:
    """div^A v = A_ij d_j v_i."""
    if v.rank != 1:
        raise ValueError("geo_divergence expects a vector field")
    g = full_gradient(v).values  # g[j, i] = d_j v_i
    return BulkField(v.dom, np.einsum("ij...,ji...->...", A.values, g))


# ---------------------------------------------------------------------------
# quadrature and integral identities
# ---------------------------------------------------------------------------


def bulk_integral(f: BulkField | np.ndarray, dom: FlattenedDomain | None = None) -> float:
    """Integral over the strip: horizontal mean times Clenshaw-Curtis in x3."""
    if isinstance(f, BulkField):
        dom = f.dom
        values = f.values
    else:
        values = np.asarray(f)
    per_level = values.mean(axis=tuple(range(values.ndim - 1 - dom.n, values.ndim - 1)))
    return float(np.tensordot(per_level, dom.w3, axes=([-1], [0])))


def piola_residual(eta: SpectralField, dom: FlattenedDomain) -> float:
    """Max norm of div(J A) over the grid (zero in the continuum).

    Computed from J A - I, whose divergence is the same; this keeps the
    flat-surface residual exactly zero instead of leaving the rounding of
    the differentiation-matrix row sums.
    """
    geo = geometric_coefficients(eta, dom)
    JA = geo.J.values * geo.A.values
    for i in range(dom.ncomp):
        JA[i, i] -= 1.0
    res = sum(_horizontal_derivative(JA[:, j], dom, j) for j in range(dom.n))
    res += _vertical_derivative(JA[:, dom.n], dom)
    return float(np.max(np.abs(res)))


def div_theorem_residual(v: BulkField, eta: SpectralField, dom: FlattenedDomain) -> float:
    """|int_Omega (div^A v) J - int_bdry v . nu^A| for the A-divergence theorem."""
    if v.rank != 1:
        raise ValueError("div_theorem_residual expects a vector field")
    geo = geometric_coefficients(eta, dom)
    volume = bulk_integral(BulkField(dom, geo_divergence(v, geo.A).values * geo.J.values))
    top = np.mean(np.einsum("i...,i...->...", v.values[..., 0], geo.nu_top))
    bot = np.mean(-v.values[dom.n, ..., -1])
    return float(abs(volume - (top + bot)))


def geometric_forms(gc: GeometricCoefficients, v: np.ndarray, grad_v):
    """Kinetic and dissipation forms summed over a leading copy axis.

    `v` holds velocity copies, shape (c, n+1, *grid, Mv), and
    grad_v[i][c, j] = d_i v[c, j].  Returns the sums over copies of
    1/2 int |v|^2 J and 1/2 int |D^A v|^2 J.

    A is the identity except for column n, so (A grad v)_ij is
    d_i v_j + A_in d_n v_j for i < n and A_nn d_n v_j for i = n, and
    |D^A v|^2 = 4 sum_i (A grad v)_ii^2 + 2 sum_{i<j} ((A grad v)_ij + (A grad v)_ji)^2.
    Both integrands are summed over the copies before the J-weighted integral.
    """
    dom = gc.dom
    n = dom.n
    A = gc.A.values
    J = gc.J.values

    def ga(i, j):
        if i == n:
            return A[n, n] * grad_v[n][:, j]
        return grad_v[i][:, j] + A[i, n] * grad_v[n][:, j]

    def copy_sum_sq(x):
        return np.einsum("c...,c...->...", x, x)

    kinetic = np.einsum("cj...,cj...->...", v, v)
    dissipation = 4.0 * sum(copy_sum_sq(ga(i, i)) for i in range(n + 1))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            dissipation += 2.0 * copy_sum_sq(ga(i, j) + ga(j, i))
    return 0.5 * bulk_integral(kinetic * J, dom), 0.5 * bulk_integral(dissipation * J, dom)


@cache
def _contraction_parts(n: int) -> np.ndarray:
    """The A-contraction of `geometric_forms` split by the entries of A it reads.

    With c = (1, A_0n, ..., A_(n-1)n, A_nn), D^A v = sum_m c_m S_m grad v for
    constant maps S_m: S_0 keeps the horizontal rows d_i v_j (i < n) and S_{1+i}
    puts the vertical row d_n v_j in row i, each then symmetrized.  Returned as
    (n+2, E, n+1, n+1), S[m, e, k, j] the weight of d_k v_j in entry e of S_m grad v,
    over the E entries i <= j of D^A v with the off-diagonal ones scaled by
    sqrt(2), so |D^A v|^2 is the plain sum of squares over e.
    """
    nc = n + 1
    # S[m, i, j, k, l]: the weight of c_m d_k v_l in (A grad v)_ij
    S = np.zeros((n + 2, nc, nc, nc, nc))
    for i in range(n):
        S[0, i, :, i, :] = np.eye(nc)
    for m in range(1, n + 2):
        S[m, m - 1, :, n, :] = np.eye(nc)
    upper = np.triu_indices(nc)
    scale = np.where(upper[0] == upper[1], 1.0, np.sqrt(2.0))[:, None, None]
    return (S + S.swapaxes(1, 2))[:, upper[0], upper[1]] * scale


def pair_forms(gc: GeometricCoefficients, keys: np.ndarray, eta: np.ndarray, groups):
    """`geometric_forms` of copies given per mode, as exact sums over wavevector pairs.

    `keys` (P, n) holds one representative of each excited +-k pair, all off the
    Nyquist planes, and `eta` (P,) the coefficients there of the surface behind
    `gc`.  Each group (phi, u) holds copy factors phi (P, c) and profiles u
    (P, n+1, M_v): copy a of the group is the real velocity field with
    coefficient phi[p, a] u[p] at k_p and its conjugate at -k_p (real at k = 0,
    where phi must be real).  Returns the same two sums as `geometric_forms`.

    For real fields with coefficients f_p, g_q and a weight W sampled on the
    grid, the grid mean of W f g is sum_{p,q} f_p g_q What[-(p+q) mod N] exactly,
    What being the DFT of W's samples.  The copies of a group enter through the
    per-pair factor F = phi phi^T over the signed wavevectors.  With c_m as in
    `_contraction_parts`, J |D^A v|^2 = sum_{m,m'} W_mm' (S_m grad v).(S_m' grad v)
    with W_mm' = y_m y_m' / J and y = J c = (J, -grad(chi E eta)_i, 1): row m = 0
    (J, -grad_i and 1) is linear in eta and read from the per-mode extension
    profiles; the other (n+1)(n+2)/2 weights take one transform per level.  The
    terms of -k_p mirror those of k_p, so p runs over the representatives only.
    """
    import scipy.fft

    dom = gc.dom
    grid = dom.horizontal
    n, N, M_v = dom.n, grid.N, dom.M_v
    k = np.asarray(keys, dtype=int).reshape(-1, n)
    for kt in k:
        band_wavevector(grid, kt)
    if np.any(k == N // 2):
        raise ValueError("pair forms need wavevectors off the Nyquist planes")
    P, nz = len(k), np.any(k, axis=1)

    def signed(x):
        """(P, ...) at the representatives -> (Q, ...) at the signed wavevectors: the
        representatives (real at k = 0), then the negatives of the others, conjugated."""
        x = np.where(nz.reshape((P,) + (1,) * (x.ndim - 1)), x, np.real(x))
        return np.concatenate([x, np.conj(x[nz])])

    ks = np.concatenate([k, -k[nz]])
    Q, G = len(ks), len(groups)
    kmod = 2.0 * np.pi * np.sqrt(np.sum(ks.astype(float) ** 2, axis=1))
    mult = derivative_multiplier(grid)[ks % N]  # (Q, n)
    r = -(k[:, None] + ks[None]) % N  # the slot -(k_p + k_q) of each pair, (P, Q, n)

    # W_mm' = y_m y_m' / J at -(k_p + k_q), (M_v, families, P, Q).  Row m = 0 is read from
    # a table of the profiles at the signed wavevectors, slot Q standing for k = 0 when no
    # representative is 0 and slot Q + 1 for every other wavevector (zero there).
    slot = np.full(grid.shape, Q + 1)
    slot[tuple((ks % N).T)] = np.arange(Q)
    zero = (0,) * n
    slot[zero] = min(slot[zero], Q)
    ext = signed(np.asarray(eta, dtype=complex))[:, None] * np.exp(kmod[:, None] * dom.x3)
    table = np.zeros((M_v, n + 2, Q + 2), dtype=complex)
    table[:, 0, :Q] = ((dom.chi * kmod[:, None] + 1.0 / dom.b) * ext).T
    table[:, 1:n + 1, :Q] = -(dom.chi * mult.T[:, :, None] * ext).transpose(2, 0, 1)
    table[:, ::n + 1, slot[zero]] += 1.0
    upper = np.triu_indices(n + 1)
    W = np.empty((M_v, n + 2 + len(upper[0]), P, Q), dtype=complex)
    W[:, :n + 2] = table[:, :, slot[tuple(np.moveaxis(r, -1, 0))]]
    # the others from one transform per level of each y_m y_m' / J (m, m' >= 1), read at
    # the conjugate slot where the last index passes N/2
    flip = r[..., -1] > N // 2
    at = tuple(np.moveaxis(np.where(flip[..., None], -r % N, r), -1, 0))
    grad_ext = gc.grad_chi_ext.values
    a = np.concatenate([-grad_ext[:n], np.ones((1,) + grad_ext.shape[1:])]) / gc.J.values
    for f, (m, m2) in enumerate(zip(*upper), start=n + 2):
        w = scipy.fft.rfftn(a[m] if m2 == n else -a[m] * grad_ext[m2], axes=tuple(range(n)),
                            norm="forward")[at]
        W[:, f] = np.moveaxis(np.where(flip[..., None], np.conj(w), w), -1, 0)
    family = np.zeros((n + 2, n + 2), dtype=int)
    family[0] = family[:, 0] = range(n + 2)
    family[1 + upper[0], 1 + upper[1]] = family[1 + upper[1], 1 + upper[0]] = \
        n + 2 + np.arange(len(upper[0]))
    pairs = (family[:, None, :, None] * P + np.arange(P)[:, None, None]) * Q + np.arange(Q)
    W = np.take(W.reshape(M_v, -1), pairs, axis=1)  # (M_v, m, P, m', Q)
    W *= dom.w3[:, None, None, None, None] * np.where(nz, 2.0, 1.0)[:, None, None]

    # per group: the velocities u (groups, M_v, Q, n+1), their gradients (groups, M_v, Q,
    # k, j), the parts S_m grad (groups, M_v, m, Q, E) and the pair products times the
    # pair factor F = phi phi^T, (groups, M_v, P, Q) for u and (groups, M_v, m, P, m', Q)
    # for the parts, conjugated so that Re sum W B is a real dot product
    F = np.conj([np.einsum("pa,qa->pq", f[:P], f)
                 for f in (signed(np.asarray(f, dtype=complex)) for f, _ in groups)])
    u = np.stack([np.moveaxis(signed(np.asarray(v, dtype=complex)), -1, 0) for _, v in groups])
    grad = np.concatenate([mult[:, :, None] * u[:, :, :, None],
                           (dom.D3 @ u.reshape(G, M_v, -1)).reshape(u.shape)[:, :, :, None]],
                          axis=3)
    parts = _contraction_parts(n)
    E = parts.shape[1]
    H = grad.reshape(G, M_v, Q, (n + 1) ** 2) @ parts.reshape(-1, (n + 1) ** 2).T
    H = np.conj(H.reshape(G, M_v, Q, n + 2, E).transpose(0, 1, 3, 2, 4))
    B = (H[:, :, :, :P].reshape(G, M_v, (n + 2) * P, E)
         @ H.reshape(G, M_v, (n + 2) * Q, E).swapaxes(-1, -2)).reshape((G,) + W.shape)
    B *= F[:, None, None, :, None]
    u = np.conj(u)
    K = u[:, :, :P] @ u.swapaxes(-1, -2)
    K *= F[:, None]

    def real_dot(x, y):
        return float(np.einsum("i,i->", x.view(float).ravel(), y.view(float).ravel()))

    kinetic = sum(real_dot(W[:, 0, :, 0].copy(), Kg) for Kg in K)
    dissipation = sum(real_dot(W, Bg) for Bg in B)
    return 0.5 * kinetic, 0.5 * dissipation


def geo_energy(u: BulkField, eta: SpectralField, f: EnergyDensity, g: float) -> float:
    """Zeroth-order geometric energy: 1/2 int |u|^2 J + W(eta) + g/2 int eta^2."""
    gc = geometric_coefficients(eta, u.dom)
    kinetic, _ = geometric_forms(gc, u.values[None], full_gradient(u).values[:, None])
    return kinetic + (se.energy(f, eta) + 0.5 * g * float(np.mean(eta.samples() ** 2)))


def geo_dissipation(u: BulkField, eta: SpectralField) -> float:
    """Zeroth-order geometric dissipation: 1/2 int |D^A u|^2 J."""
    gc = geometric_coefficients(eta, u.dom)
    _, dissipation = geometric_forms(gc, u.values[None], full_gradient(u).values[:, None])
    return dissipation


def bulk_sobolev_norm(f: BulkField, s: int) -> float:
    """Integer-order H^s norm on the strip (all derivatives up to order s)."""
    if s < 0 or s != int(s):
        raise ValueError("bulk Sobolev norms are integer order only")
    dom = f.dom
    total = 0.0
    for order in range(s + 1):
        for multi in product(range(order + 1), repeat=dom.ncomp):
            if sum(multi) != order:
                continue
            d = f.values
            for axis in range(dom.n):
                for _ in range(multi[axis]):
                    d = _horizontal_derivative(d, dom, axis)
            for _ in range(multi[dom.ncomp - 1]):
                d = _vertical_derivative(d, dom)
            total += bulk_integral(BulkField(dom, np.sum(d * d, axis=tuple(range(f.rank)))))
    return float(np.sqrt(total))
