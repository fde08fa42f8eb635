"""Surface energy W(eta) = int f(grad eta, hess eta) and its variations.

All field-level operations evaluate the density's coefficient tensors along
the jet of eta on a 3/2-padded grid, contract pointwise, and (for operator
outputs) transform back and truncate to the original band.

The first variation is computed from its explicit expansion in derivatives
of eta up to order four,

    dW(eta) = fMM . D4 - fpp . D2 + fMMM . (D3 x D3)
              + 2 fMMp . (D3 x D2) + fMpp . (D2 x D2),

which only needs smooth coefficient fields, and the second/third variations
from J*(grad^k f(J eta) . J phi ...) with J = (grad, hess) and
J*(q, N) = -div q + hess : N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import factorial

import numpy as np

from .densities import EnergyDensity
from .fourier import (
    SpectralField,
    TorusGrid,
    axis_multipliers,
    coeffs_to_samples,
    embed_coeffs,
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


def derivative_tensors(coeffs: np.ndarray, grid: TorusGrid, max_order: int):
    """Sampled derivative tensors D1..Dmax of a stack of fields on the padded grid.

    `coeffs` holds the fields' coefficients on `grid`, shape grid.shape +
    batch.  Returns a dict order -> array of shape batch + fine.shape +
    (n,)*order, filled symmetrically from the distinct spectral derivatives
    of the whole stack, synthesized in one call, and the padded grid.
    """
    fine = grid.padded()
    n = grid.n
    base = embed_coeffs(coeffs, grid, fine)
    batch = base.shape[n:]
    # field index first in memory too, so that the stack of derivatives is contiguous
    base = np.ascontiguousarray(np.moveaxis(base, tuple(range(n)), tuple(range(-n, 0))))
    mults = axis_multipliers(fine)

    def multi_index(idx):
        return tuple(sum(1 for a in idx if a == ax) for ax in range(n))

    multis = sorted({multi_index(idx) for order in range(1, max_order + 1)
                     for idx in product(range(n), repeat=order)})
    symbols = np.ones((len(multis),) + fine.shape, dtype=complex)
    for symbol, multi in zip(symbols, multis):
        for axis, m in enumerate(multi):
            symbol *= mults[axis] ** m
    symbols = symbols.reshape((len(multis),) + (1,) * len(batch) + fine.shape)
    samples = coeffs_to_samples(base * symbols, fine)

    out = {}
    for order in range(1, max_order + 1):
        D = np.zeros(batch + fine.shape + (n,) * order)
        for idx in product(range(n), repeat=order):
            D[(Ellipsis,) + idx] = samples[multis.index(multi_index(idx))]
        out[order] = D
    return out, fine


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


def adjoint_jet(q: np.ndarray, N: np.ndarray, fine: TorusGrid, coarse: TorusGrid) -> SpectralField:
    """J*(q, N) = -div q + hess : N, assembled spectrally and truncated."""
    n = coarse.n
    mults = axis_multipliers(fine)
    out = np.zeros(fine.shape, dtype=complex)
    for k in range(n):
        out -= mults[k] * samples_to_coeffs(q[..., k], fine)
    for i in range(n):
        for j in range(n):
            out += mults[i] * mults[j] * samples_to_coeffs(N[..., i, j], fine)
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
    fp, fM = f.grad(p, M)
    check_finite(f, fp, fM)
    return adjoint_jet(fp, fM, fine, eta.grid)


def first_variation_expanded(f: EnergyDensity, eta: SpectralField) -> SpectralField:
    """Reference form of dW(eta) expanded in derivatives of eta up to order 4.

    Agrees with `first_variation` up to quadrature aliasing of the
    coefficient fields; used in tests against the closed-form force curves.
    """
    D, fine = derivative_tensors(eta.coeffs, eta.grid, 4)
    p, M = D[1], D[2]
    fpp, fpM, fMM = f.hess(p, M)
    fppp, fppM, fpMM, fMMM = f.third(p, M)
    vals = np.einsum("...klij,...ijkl->...", fMM, D[4])
    vals -= np.einsum("...kl,...kl->...", fpp, D[2])
    if fMMM.any():
        vals += np.einsum("...klijrs,...ijl,...rsk->...", fMMM, D[3], D[3])
    vals += 2.0 * np.einsum("...nklij,...ijl,...nk->...", fpMM, D[3], D[2])
    vals += np.einsum("...mnkl,...nk,...ml->...", fppM, D[2], D[2])
    check_finite(f, vals)
    coeffs = truncate_coeffs(samples_to_coeffs(vals, fine), fine, eta.grid)
    return SpectralField(eta.grid, coeffs)


def second_variation_apply(f: EnergyDensity, eta: SpectralField, phi: SpectralField) -> SpectralField:
    """(d2W(eta)) phi = J*(hess f(J eta) . J phi)."""
    (p, gp), (M, gM), fine = _jet_fields(eta, phi)
    fpp, fpM, fMM = f.hess(p, M)
    q = np.einsum("...kl,...l->...k", fpp, gp) + np.einsum("...kij,...ij->...k", fpM, gM)
    N = np.einsum("...lij,...l->...ij", fpM, gp) + np.einsum("...ijkl,...kl->...ij", fMM, gM)
    check_finite(f, q, N)
    return adjoint_jet(q, N, fine, eta.grid)


def third_variation_apply(
    f: EnergyDensity, eta: SpectralField, phi: SpectralField, psi: SpectralField
) -> SpectralField:
    """(d3W(eta))(phi, psi) = J*(third f(J eta) . (J phi x J psi))."""
    (p, gp, hp), (M, gM, hM), fine = _jet_fields(eta, phi, psi)
    fppp, fppM, fpMM, fMMM = f.third(p, M)
    q = np.einsum("...klm,...l,...m->...k", fppp, gp, hp)
    q += np.einsum("...klij,...l,...ij->...k", fppM, gp, hM)
    q += np.einsum("...klij,...l,...ij->...k", fppM, hp, gM)
    q += np.einsum("...kijrs,...ij,...rs->...k", fpMM, gM, hM)
    N = np.einsum("...lmij,...l,...m->...ij", fppM, gp, hp)
    N += np.einsum("...mijkl,...m,...kl->...ij", fpMM, gp, hM)
    N += np.einsum("...mijkl,...m,...kl->...ij", fpMM, hp, gM)
    if fMMM.any():
        N += np.einsum("...ijklrs,...kl,...rs->...ij", fMMM, gM, hM)
    check_finite(f, q, N)
    return adjoint_jet(q, N, fine, eta.grid)


@cache
def _hessian_table(n: int):
    """The terms of hess f . (J zeta x J zeta) = fpp.(gp x gp) + 2 fpM.(gp x gM) + fMM.(gM x gM).

    The jet (gp, gM) is read as n + n^2 slots (gp_k, then gM_ij row by row) and
    the Hessian as its flattened entries H_h (fpp, fpM, fMM).  Returns the
    distinct slot pairs (I, J), I <= J, and the weights W (entries, pairs) that
    place each entry on its pair, so that the form is sum_q (H W)_q z_I z_J.
    """
    p = range(n)
    M = [n + n * i + j for i in range(n) for j in range(n)]
    terms = ([(k, l, 1.0) for k in p for l in p] + [(k, m, 2.0) for k in p for m in M]
             + [(m, q, 1.0) for m in M for q in M])
    pairs, entry_pair = np.unique([sorted(t[:2]) for t in terms], axis=0, return_inverse=True)
    W = np.zeros((len(terms), len(pairs)))
    W[np.arange(len(terms)), entry_pair.ravel()] = [t[2] for t in terms]
    return pairs, W


def _hessian_entries(hess) -> np.ndarray:
    return np.concatenate([h.reshape(h.shape[:h.ndim - k] + (-1,))
                           for h, k in zip(hess, (2, 3, 4))], axis=-1)


def _jet_slots(gp: np.ndarray, gM: np.ndarray) -> np.ndarray:
    return np.concatenate([gp, gM.reshape(gM.shape[:-2] + (-1,))], axis=-1)


def hessian_form(hess, gp: np.ndarray, gM: np.ndarray) -> np.ndarray:
    """Pointwise hess f . (J zeta x J zeta), the integrand of 2 Q_eta(zeta).

    `hess` = (fpp, fpM, fMM) is evaluated along the jet of eta and (gp, gM)
    is the jet of zeta; any common leading shape is kept.
    """
    pairs, W = _hessian_table(gp.shape[-1])
    z = _jet_slots(gp, gM)
    return np.einsum("...q,...q->...", _hessian_entries(hess) @ W,
                     z[..., pairs[:, 0]] * z[..., pairs[:, 1]])


def hessian_form_total(hess, gp: np.ndarray, gM: np.ndarray) -> float:
    """The mean over the points of `hessian_form`, summed over a leading copy axis.

    `hess` is evaluated at the points, shape (*points, ...), and (gp, gM) are
    the jets of the copies, shape (copies, *points, ...).  The slot products
    z_I z_J are summed over the copies first, then dotted with the Hessian's
    weight on their pair.
    """
    pairs, W = _hessian_table(gp.shape[-1])
    HW = (_hessian_entries(hess) @ W).reshape(-1, len(pairs))
    # slots first, (slot, copy, point), so each pair's sum over the copies is one einsum
    z = np.moveaxis(_jet_slots(gp, gM).reshape(len(gp), len(HW), -1), -1, 0)
    z = np.ascontiguousarray(z)
    S = np.stack([np.einsum("cx,cx->x", z[i], z[j]) for i, j in pairs])
    return float(np.einsum("xq,qx->", HW, S)) / len(HW)


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
    """Scan sigma(k)/|2 pi k|^4 over 0 < |k|_inf <= kmax; verdict = min > 0."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    candidates = []
    for idx in product(range(-kmax, kmax + 1), repeat=n):
        if all(c == 0 for c in idx):
            continue
        candidates.append(idx)
    candidates.sort(key=lambda kt: (sum(c * c for c in kt), kt))
    best = None
    best_k = None
    for kt in candidates:
        kappa4 = (2.0 * np.pi) ** 4 * float(sum(c * c for c in kt)) ** 2
        ratio = hessian_symbol(f, g, kt, n=n) / kappa4
        if best is None or ratio < best - 1e-15:
            best = ratio
            best_k = kt
    if best_k < tuple(-c for c in best_k):  # report the conjugacy representative
        best_k = tuple(-c for c in best_k)
    return EllipticityResult(min_ratio=best, argmin_k=best_k, verdict=best > 0.0)


# ---------------------------------------------------------------------------
# Taylor splitting with integral remainder
# ---------------------------------------------------------------------------


def _contract_grad(grad, p, M):
    fp, fM = grad
    return np.einsum("...k,k->...", fp, p) + np.einsum("...ij,ij->...", fM, M)


def _contract_third(third, p, M):
    fppp, fppM, fpMM, fMMM = third
    out = np.einsum("...klm,k,l,m->...", fppp, p, p, p)
    out += 3.0 * np.einsum("...klij,k,l,ij->...", fppM, p, p, M)
    out += 3.0 * np.einsum("...mijkl,m,ij,kl->...", fpMM, p, M, M)
    out += np.einsum("...ijklrs,ij,kl,rs->...", fMMM, M, M, M)
    return out


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
    n = z.p.size
    f0, grad0, hess0 = f.at_origin(n)

    poly = f0
    if order >= 1:
        poly += float(_contract_grad(grad0, z.p, z.M))
    if order >= 2:
        poly += 0.5 * float(hessian_form(hess0, z.p, z.M))

    derivative = (f.grad, f.hess, f.third)[order]
    contract = (_contract_grad, hessian_form, _contract_third)[order]
    rules = []
    for m in (24, 48):
        t, w = _unit_gauss_legendre(m)
        vals = contract(derivative(t[:, None] * z.p, t[:, None, None] * z.M), z.p, z.M)
        rules.append(float(np.sum(w * (1.0 - t) ** order * vals)) / factorial(order))
    coarse, remainder = rules
    if not np.isfinite(remainder) or abs(remainder - coarse) > 1e-9 * max(1.0, abs(remainder)):
        raise EvaluationError("remainder quadrature failed to converge")
    return float(poly), remainder
