"""Surface energy W(eta) = int f(grad eta, hess eta) and its variations.

All field-level operations evaluate the density's derivative blocks along
the jet of eta on a 3/2-padded grid, contract pointwise, and (for operator
outputs) transform back and truncate to the original band.

A jet (p, M) = (grad eta, hess eta) is read as one slot vector z = (p_k,
then M_ij row by row) of s = n + n^2 slots, and the r-th derivative of f as
one symmetric tensor over r slots, its blocks (fp, fM; fpp, fpM, fMM; ...)
placed on every ordering of their slots.  The variations are then

    dW(eta) = J*(grad f(J eta)),   d2W(eta) phi = J*(hess f(J eta) . J phi),

with J = (grad, hess) and J*(q, N) = -div q + hess : N taken from one
transform of the slot field (q, N); Q_eta and the Taylor remainders are
full contractions of the slot tensors with z.  The second and third
variations take the density's second and third derivatives applied to the
directions (`hess_apply`, `third_apply`), which a bending density forms
without building a derivative tensor.  The reference form
of dW in derivatives of eta up to order four is `first_variation_expanded`.

Memory layout: the jet, the density blocks and the slot tensors all live
slots first, grid last, the layout they are computed in.  The variations
hand `adjoint_jet` a slot field whose slot axis is first.  Slots-last
arrays, the shapes the interfaces take and give (`derivative_tensors`,
`_jet_fields`, the density methods, `_slot_tensor`, `_slots`,
`hessian_form`), are views of that memory, so moving their slots back to
the front is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import factorial

import numpy as np

from .densities import EnergyDensity, _slots_first, _slots_last
from .fourier import (
    SpectralField,
    TorusGrid,
    axis_multipliers,
    coeffs_to_samples,
    conjugacy_representatives,
    direct_synthesis,
    embed_coeffs,
    embed_half,
    embedded_support,
    half_samples,
    samples_to_coeffs,
    truncate_coeffs,
)

__all__ = [
    "Jet",
    "EvaluationError",
    "energy",
    "first_variation",
    "first_variation_expanded",
    "second_variation_apply",
    "third_variation_apply",
    "quad_energy",
    "hessian_symbol",
    "ellipticity_check",
    "EllipticityResult",
    "taylor_split",
]


class EvaluationError(RuntimeError):
    """Non-finite density values or failed remainder quadrature."""


@dataclass(frozen=True)
class Jet:
    """A single jet point (p, M) with M symmetric."""

    p: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        M = np.asarray(self.M, dtype=float)
        if p.ndim != 1 or M.shape != (p.size, p.size):
            raise ValueError("jet must be a vector and a matching square matrix")
        if np.max(np.abs(M - M.T), initial=0.0) > 1e-14:
            raise ValueError("jet matrix must be symmetric to 1e-14")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "M", M)


# ---------------------------------------------------------------------------
# jets on the padded grid
# ---------------------------------------------------------------------------


@cache
def _jet_table(fine: TorusGrid, max_order: int):
    """Symbols on `fine` of the distinct derivatives of orders 1..max_order, sorted by
    multi-index, their half spectrum (last axis 0..fine.N/2) and per order the row of
    each entry (n,)*order; read-only."""
    n = fine.n
    mults = axis_multipliers(fine)
    orders = range(1, max_order + 1)
    multis = {r: [tuple(idx.count(a) for a in range(n)) for idx in product(range(n), repeat=r)]
              for r in orders}
    distinct = sorted(set().union(*multis.values()))
    symbols = np.ones((len(distinct),) + fine.shape, dtype=complex)
    for symbol, multi in zip(symbols, distinct):
        for axis, m in enumerate(multi):
            symbol *= mults[axis] ** m
    index = {r: np.array([distinct.index(m) for m in multis[r]]).reshape((n,) * r)
             for r in orders}
    half = np.ascontiguousarray(symbols[..., :fine.N // 2 + 1])
    for a in (symbols, half, *index.values()):
        a.flags.writeable = False
    return symbols, half, index


def derivative_tensors(coeffs: np.ndarray, grid: TorusGrid, max_order: int):
    """Sampled derivative tensors D1..Dmax of a stack of fields on the padded grid.

    `coeffs` holds the fields' coefficients on `grid`, shape grid.shape +
    batch.  Returns a dict order -> array of shape batch + fine.shape +
    (n,)*order, filled symmetrically from the distinct spectral derivatives
    of the whole stack, synthesized in one call, and the padded grid.  Each
    array is a slots-last view of memory laid out batch + (n,)*order +
    fine.shape, so a field's tensor moved back to slots first is contiguous.

    The stack of derivatives takes the synthesis `coeffs_to_samples` would
    choose for it.  A dense one is formed on the half spectrum only, from
    `embed_half`, and inverse transformed there: those are the entries the
    half-spectrum FFT reads, so the samples keep their bits.
    """
    fine = grid.padded()
    n = grid.n
    symbols, half, index = _jet_table(fine, max_order)
    b = coeffs.ndim - n
    # the derivatives' nonzero entries: the embedded stack's but k = 0, where every
    # symbol vanishes (the fine Nyquist planes, where some do, hold no coefficient);
    # any() runs over a batch-first copy, as it is slow along a short last axis
    batch_first = np.moveaxis(coeffs.reshape(grid.shape + (-1,)), -1, 0).copy()
    mask = embedded_support(batch_first.any(axis=0), grid, fine)
    mask.flat[0] = False
    # memory is (field, derivative, point): each field's tensors are slots first
    if direct_synthesis(mask, fine):
        base = embed_coeffs(coeffs, grid, fine)
        base = np.ascontiguousarray(np.moveaxis(base, tuple(range(n)), tuple(range(-n, 0))))
        samples = coeffs_to_samples(np.expand_dims(base, b) * symbols, fine)
    else:
        samples = half_samples(np.expand_dims(embed_half(coeffs, grid, fine), b) * half, fine)
    return {r: np.moveaxis(np.take(samples, idx, axis=b), range(b, b + r), range(-r, 0))
            for r, idx in index.items()}, fine


def _jet_fields(*fields: SpectralField):
    """Gradients and Hessians of the stacked fields on the padded grid, field index first."""
    grid = fields[0].grid
    if any(other.grid != grid for other in fields):
        raise ValueError("fields live on different grids")
    D, fine = derivative_tensors(np.stack([fld.coeffs for fld in fields], axis=-1), grid, 2)
    return D[1], D[2], fine


def check_finite(f: EnergyDensity, *arrays: np.ndarray):
    """Raise EvaluationError unless every array evaluated along the jet is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise EvaluationError(f"density {f.name} non-finite along the jet")


def _slot_tensor(blocks) -> np.ndarray:
    """The r-th derivative of f as one symmetric tensor over the jet's slots.

    `blocks` holds its blocks by number m of M-slots (fp, fM; fpp, fpM, fMM;
    ...), each with its p indices before its M index pairs.  The block with m
    M-slots is placed on every ordering of its slots; any common leading
    shape is kept.  The tensor is filled slots first and handed out as a
    slots-last view.
    """
    r = len(blocks) - 1
    n = blocks[0].shape[-1]
    lead = blocks[0].shape[:blocks[0].ndim - r]
    T = np.empty((n + n * n,) * r + lead, dtype=np.result_type(*blocks))
    part = (slice(None, n), slice(n, None))
    for m, block in enumerate(blocks):
        block = _slots_first(block, r + m).reshape((n,) * (r - m) + (n * n,) * m + lead)
        for kinds in set(permutations((0,) * (r - m) + (1,) * m)):
            # slot t of T reads the block slot of its rank in the slots sorted by kind
            rank = np.argsort(np.argsort(kinds, kind="stable"))
            T[tuple(part[k] for k in kinds)] = block.transpose(*rank, *range(r, block.ndim))
    return _slots_last(T, r)


def _slots(p: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The slot vector z = (p_k, then M_ij row by row) of a jet, on the last axis."""
    return _slot_tensor((p, M))


def _slot_form(blocks, z: np.ndarray) -> np.ndarray:
    """The r-th derivative of f on r copies of the slots z, pointwise."""
    idx = "ijk"[:len(blocks) - 1]
    return np.einsum(f"...{idx}," + ",".join("..." + i for i in idx) + "->...",
                     _slot_tensor(blocks), *[z] * len(idx))


@cache
def _adjoint_symbols(fine: TorusGrid) -> np.ndarray:
    """The symbol of J* on each slot of `fine`: -m_k on the slots q_k, then m_i m_j
    on the slots N_ij; read-only."""
    symbols, _, index = _jet_table(fine, 2)
    out = np.concatenate([-symbols[index[1]], symbols[index[2].ravel()]])
    out.flags.writeable = False
    return out


def adjoint_jet(w: np.ndarray, fine: TorusGrid, coarse: TorusGrid) -> SpectralField:
    """J*(q, N) = -div q + hess : N of the slot field w = (q, N), slot axis first,
    shape (n + n^2,) + fine.shape, assembled spectrally from one transform of the
    slots and truncated."""
    out = np.zeros(fine.shape, dtype=complex)
    for symbol, c in zip(_adjoint_symbols(fine), samples_to_coeffs(w, fine)):
        out += symbol * c
    return SpectralField(coarse, truncate_coeffs(out, fine, coarse))


# ---------------------------------------------------------------------------
# energy and variations
# ---------------------------------------------------------------------------


def energy(f: EnergyDensity, eta: SpectralField) -> float:
    """W(eta): quadrature of f along the jet on the padded grid."""
    (p,), (M,), _ = _jet_fields(eta)
    vals = f.value(p, M)
    check_finite(f, vals)
    return float(np.mean(vals))


def first_variation(f: EnergyDensity, eta: SpectralField) -> SpectralField:
    """The L^2 gradient dW(eta), <dW(eta), phi> = d/dt W(eta + t phi)|_0.

    Computed in adjoint form J*(grad f(J eta)), which is the exact gradient
    of the discretized energy: the pointwise chain rule on the quadrature
    nodes carries no aliasing error, so finite differences of `energy`
    match this field to the order of the differencing alone.
    """
    (p,), (M,), fine = _jet_fields(eta)
    w = _slots_first(_slots(*f.grad(p, M)), 1)
    check_finite(f, w)
    return adjoint_jet(w, fine, eta.grid)


def first_variation_expanded(f: EnergyDensity, eta: SpectralField) -> SpectralField:
    """Reference form of dW(eta) expanded in derivatives of eta up to order 4.

    Agrees with `first_variation` up to quadrature aliasing of the
    coefficient fields; used in tests against the closed-form force curves.
    """
    D, fine = derivative_tensors(eta.coeffs, eta.grid, 4)
    p, M = D[1], D[2]
    fpp, fpM, fMM = f.hess(p, M)
    _, fppM, fpMM, _ = f.third(p, M)
    vals = np.einsum("...klij,...ijkl->...", fMM, D[4])
    vals -= np.einsum("...kl,...kl->...", fpp, D[2])
    vals += 2.0 * np.einsum("...nklij,...ijl,...nk->...", fpMM, D[3], D[2])
    vals += np.einsum("...mnkl,...nk,...ml->...", fppM, D[2], D[2])
    check_finite(f, vals)
    coeffs = truncate_coeffs(samples_to_coeffs(vals, fine), fine, eta.grid)
    return SpectralField(eta.grid, coeffs)


def second_variation_apply(f: EnergyDensity, eta: SpectralField, phi: SpectralField) -> SpectralField:
    """(d2W(eta)) phi = J*(hess f(J eta) . J phi)."""
    (p, gp), (M, gM), fine = _jet_fields(eta, phi)
    w = _slots_first(_slots(*f.hess_apply(p, M, gp, gM)), 1)
    check_finite(f, w)
    return adjoint_jet(w, fine, eta.grid)


def third_variation_apply(
    f: EnergyDensity, eta: SpectralField, phi: SpectralField, psi: SpectralField
) -> SpectralField:
    """(d3W(eta))(phi, psi) = J*(third f(J eta) . (J phi x J psi))."""
    (p, gp, hp), (M, gM, hM), fine = _jet_fields(eta, phi, psi)
    w = _slots_first(_slots(*f.third_apply(p, M, (gp, gM), (hp, hM))), 1)
    check_finite(f, w)
    return adjoint_jet(w, fine, eta.grid)


def hessian_form(hess, gp: np.ndarray, gM: np.ndarray) -> np.ndarray:
    """Pointwise hess f . (J zeta x J zeta), the integrand of 2 Q_eta(zeta).

    `hess` = (fpp, fpM, fMM) is evaluated along the jet of eta and (gp, gM)
    is the jet of zeta; any common leading shape is kept.
    """
    return _slot_form(hess, _slots(gp, gM))


def hessian_form_total(hess, gp: np.ndarray, gM: np.ndarray) -> float:
    """The mean over the points of `hessian_form`, summed over a leading copy axis.

    `hess` is evaluated at the points, shape (*points, ...), and (gp, gM) are
    the jets of the copies, shape (copies, *points, ...).  The slot products
    z_I z_J are summed over the copies first, then dotted with the Hessian.
    """
    z = _slots_first(_slots(gp, gM), 1)
    z = z.reshape(z.shape[:2] + (-1,))  # (slot, copy, point)
    S = np.einsum("icx,jcx->xij", z, z)
    # summed point-major over a contiguous H, the order that keeps E_geo to the bit
    H = np.ascontiguousarray(_slot_tensor(hess)).reshape(S.shape)
    return float(np.einsum("xij,xij->", H, S)) / len(S)


def quad_energy(f: EnergyDensity, eta: SpectralField, zeta: SpectralField) -> float:
    """Quadratic approximation Q_eta(zeta) = 1/2 int hess f(J eta).(J zeta x J zeta)."""
    (p, gp), (M, gM), _ = _jet_fields(eta, zeta)
    vals = hessian_form(f.hess(p, M), gp, gM)
    check_finite(f, vals)
    return 0.5 * float(np.mean(vals))


# ---------------------------------------------------------------------------
# flat-state symbol and ellipticity
# ---------------------------------------------------------------------------


def hessian_symbol(f: EnergyDensity, g: float, k, n: int | None = None) -> float:
    """Fourier multiplier of d2W(0) + g at integer wavevector k != 0.

    sigma(k) = fMM(0).(kappa x kappa x kappa x kappa) + fpp(0).(kappa x kappa) + g
    with kappa = 2 pi k; the gradient block enters with a plus sign because
    -div brings a second factor of (i kappa).
    """
    kt = np.atleast_1d(np.asarray(k, dtype=float))
    if n is None:
        n = kt.size
    if np.all(kt == 0):
        raise ValueError("the symbol is defined for nonzero wavevectors only")
    _, _, (fpp, _, fMM) = f.at_origin(n)
    kappa = 2.0 * np.pi * kt
    quartic = np.einsum("ijkl,i,j,k,l->", fMM, kappa, kappa, kappa, kappa)
    quadratic = np.einsum("kl,k,l->", fpp, kappa, kappa)
    return float(quartic + quadratic + g)


@dataclass(frozen=True)
class EllipticityResult:
    min_ratio: float
    argmin_k: tuple[int, ...]
    verdict: bool


def ellipticity_check(f: EnergyDensity, g: float, kmax: int, n: int = 2) -> EllipticityResult:
    """Scan sigma(k)/|2 pi k|^4 over 0 < |k|_inf <= kmax, one k per +-k pair;
    verdict = min > 0."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    best = None
    best_k = None
    # sigma(-k) == sigma(k) bit for bit, so one k per pair suffices; the (|k|^2, -k)
    # order meets each pair where a scan of every k in (|k|^2, k) order would, which
    # keeps the same first minimum under the 1e-15 tie-break
    for kt in sorted(conjugacy_representatives(kmax, n),
                     key=lambda kt: (sum(c * c for c in kt), tuple(-c for c in kt))):
        kappa4 = (2.0 * np.pi) ** 4 * float(sum(c * c for c in kt)) ** 2
        ratio = hessian_symbol(f, g, kt, n=n) / kappa4
        if best is None or ratio < best - 1e-15:
            best = ratio
            best_k = kt
    return EllipticityResult(min_ratio=best, argmin_k=best_k, verdict=best > 0.0)


# ---------------------------------------------------------------------------
# Taylor splitting with integral remainder
# ---------------------------------------------------------------------------


@cache
def _unit_gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def taylor_split(f: EnergyDensity, order: int, z: Jet) -> tuple[float, float]:
    """Split f(z) = P_order(z) + R_order(z) about the origin.

    P_k is the degree-k Taylor polynomial; the remainder is the integral
    form R_k(z) = 1/k! int_0^1 (1-t)^k grad^(k+1) f(t z) . z^(k+1) dt,
    evaluated by 24- and 48-point Gauss-Legendre rules, one batched
    derivative call each.  The 48-point value is returned; EvaluationError
    if it is not finite or differs from the 24-point value by more than
    1e-9 max(1, |R|).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    slots = _slots(z.p, z.M)
    f0, *origin = f.at_origin(z.p.size)
    poly = f0
    for r, blocks in enumerate(origin[:order], 1):
        poly += float(_slot_form(blocks, slots)) / factorial(r)

    derivative = (f.grad, f.hess, f.third)[order]
    rules = []
    for m in (24, 48):
        t, w = _unit_gauss_legendre(m)
        vals = _slot_form(derivative(t[:, None] * z.p, t[:, None, None] * z.M), slots)
        rules.append(float(np.sum(w * (1.0 - t) ** order * vals)) / factorial(order))
    coarse, remainder = rules
    if not np.isfinite(remainder) or abs(remainder - coarse) > 1e-9 * max(1.0, abs(remainder)):
        raise EvaluationError("remainder quadrature failed to converge")
    return float(poly), remainder
