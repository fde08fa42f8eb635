"""Per-wavevector linear stability of the flat equilibrium.

For each horizontal wavevector k the linearized flow (Stokes in the strip
with a free top and a rigid bottom) reduces to profiles on the vertical
collocation nodes.  With the time convention x ~ exp(-lambda t), decay
means Re lambda > 0, and the problem is the generalized eigenproblem

    lambda B x = L x,     x = (u_1 .. u_n, u_3, p, eta_hat),

with B the mass structure (identity on interior velocity rows and the
kinematic row, zero on pressure and constraint rows).  Boundary rows are
imposed by row replacement: no slip at the bottom, zero tangential stress
and the normal-stress balance p - 2 d3 u3 = sigma(k) eta at the top.  The
divergence constraint is collocated at every vertical node; at the two
boundary nodes it encodes the smoothness conditions implied by no slip and
the kinematic coupling, and it closes the (n+2) M_v + 1 square system.

The k = 0 branch freezes eta_hat (zero-average normalization): horizontal
mean flow relaxes with its own no-slip/free-slip rates and carries no
surface dynamics; its pressure, fixed only up to a constant, is gauged by
p(bottom) = 0 in place of the dependent bottom-node divergence row.

Every LAPACK call of the flow goes through `_scipy_linalg`, which runs scipy's OpenBLAS
on the calling thread, so no result depends on its thread count; numpy's LAPACK is left
only in the post-run `lstsq` of `simulate.measure_decay_rate` and in the `np.linalg.cond`
of `solve_spectrum`'s failure message.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import EnergyDensity
from .fourier import conjugacy_representatives
from .geometry import chebyshev_lobatto
from .surface_energy import hessian_symbol

__all__ = [
    "ModeLayout",
    "ModeOperator",
    "Spectrum",
    "NumericError",
    "assemble_mode",
    "solve_spectrum",
    "time_derivative_trace",
    "mode_sigma",
    "mode_sweep",
    "global_decay_rate",
    "conjugacy_representatives",
]

RESIDUAL_FILTER = 1e-8


class NumericError(RuntimeError):
    """Eigensolver or linear-solver failure."""


@dataclass(frozen=True)
class ModeLayout:
    """Where the unknowns of a mode vector x = (u_1 .. u_n, u_3, p, eta_hat) sit:
    n + 1 velocity blocks and one pressure block of M_v vertical nodes each,
    then the surface amplitude."""

    n: int
    M_v: int

    @property
    def dim(self) -> int:
        return (self.n + 2) * self.M_v + 1

    def u(self, j: int) -> slice:
        return slice(j * self.M_v, (j + 1) * self.M_v)

    @property
    def p(self) -> slice:
        return self.u(self.n + 1)

    @property
    def eta(self) -> int:
        return (self.n + 2) * self.M_v

    def blocks(self, X: np.ndarray):
        """Views of mode vectors X (..., dim): velocity (..., n+1, M_v),
        pressure (..., M_v) and eta (...)."""
        u = X[..., :self.p.start].reshape(X.shape[:-1] + (self.n + 1, self.M_v))
        return u, X[..., self.p], X[..., self.eta]


def time_derivative_trace(X: np.ndarray, kappa: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Trace of the evolution equations on mode vectors X (modes, dim) with
    wavevectors kappa = 2 pi k (modes, n): (du/dt, dp/dt = 0, deta/dt).

    du/dt = -grad p + lap u at every node (momentum trace), and
    deta/dt = u3(top).  The pressure slot is left zero.
    """
    lay = ModeLayout(kappa.shape[1], D.shape[0])
    u, p, _ = lay.blocks(X)
    k2 = np.sum(kappa**2, axis=1)
    out = np.zeros_like(X)
    du, _, _ = lay.blocks(out)
    du[...] = u @ (D @ D).T - k2[:, None, None] * u
    du[:, :-1] -= 1j * kappa[:, :, None] * p[:, None, :]
    du[:, -1] -= p @ D.T
    out[:, lay.eta] = u[:, -1, 0]
    return out


@dataclass(frozen=True)
class ModeOperator:
    """Discretized linearized operator at one horizontal wavevector."""

    k: tuple[int, ...]
    b: float
    sigma: float
    M_v: int
    L: np.ndarray
    B: np.ndarray
    x3: np.ndarray
    D: np.ndarray

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def layout(self) -> ModeLayout:
        return ModeLayout(self.n, self.M_v)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def slice_u(self, j: int) -> slice:
        return self.layout.u(j)

    @property
    def slice_p(self) -> slice:
        return self.layout.p

    @property
    def idx_eta(self) -> int:
        return self.layout.eta

    def pde_time_derivative(self, x: np.ndarray) -> np.ndarray:
        """`time_derivative_trace` of the one mode vector x."""
        kappa = 2.0 * np.pi * np.asarray(self.k, dtype=float)
        return time_derivative_trace(x[None], kappa[None], self.D)[0]


def assemble_mode(k, b: float, sigma: float, M_v: int) -> ModeOperator:
    """Build lambda B x = L x at wavevector k (k = 0 gives the frozen-eta branch)."""
    kt = (int(k),) if np.isscalar(k) else tuple(int(ki) for ki in k)
    n = len(kt)
    if n not in (1, 2):
        raise ValueError("wavevector must have one or two components")
    if M_v < 8:
        raise ValueError("need M_v >= 8")
    if not np.isfinite(sigma):
        raise ValueError("sigma must be finite")
    xi, Dxi = chebyshev_lobatto(M_v)
    x3 = b * (xi - 1.0) / 2.0
    D = (2.0 / b) * Dxi
    kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
    k2 = float(np.dot(kappa, kappa))
    ik = 1j * kappa[:, None, None] * np.eye(M_v)  # i kappa_j on the diagonal, (n, M_v, M_v)

    # Entries are added once onto zeros, so zeros stay +0.0 (zggev's roundoff sees the sign)
    # unless assigned.  Lb[i, r, j]: row r of block i (u_1 .. u_n, w = u_3, p) by block j.
    lay = ModeLayout(n, M_v)
    L = np.zeros((lay.dim, lay.dim), dtype=complex)
    Lb = L[:lay.eta, :lay.eta].reshape(n + 2, M_v, n + 2, M_v)
    w, p, top, inner, bot = n, n + 1, 0, slice(1, M_v - 1), M_v - 1

    # momentum rows lambda u = (k2 - D2) u + grad p at the interior nodes, no slip at the bottom
    Lb[range(n + 1), inner, range(n + 1)] += (k2 * np.eye(M_v) - D @ D)[inner]
    Lb[:n, inner, p, inner] += ik[:, inner, inner]
    Lb[w, inner, p] += D[inner]
    Lb[range(n + 1), bot, range(n + 1), bot] = 1.0

    # top: zero tangential stress d3 u_j + i kappa_j u_3, normal stress p - 2 d3 u_3 = sigma eta
    Lb[range(n), top, range(n)] += D[top]
    Lb[:n, top, w, top] += 1j * kappa
    Lb[w, top, p, top] = 1.0
    Lb[w, top, w] += -2.0 * D[top]
    L[lay.u(w).start, lay.eta] = -sigma

    # divergence i kappa . u_h + d3 u_3 at every node
    Lb[p, :, :n] += ik.swapaxes(0, 1)
    Lb[p, :, w] += D

    # kinematic row lambda eta = -u_3(top), with unit mass on it and the interior velocity rows
    mass = np.zeros(lay.dim)
    lay.blocks(mass)[0][:, inner] = 1.0
    if k2 == 0.0:
        L[lay.eta, lay.eta] = 1.0  # frozen eta, and the pressure gauge p(bottom) = 0
        Lb[p, bot] = 0.0
        Lb[p, bot, p, bot] = 1.0
    else:
        mass[lay.eta] = 1.0
        L[lay.eta, lay.u(w).start] = -1.0

    return ModeOperator(k=kt, b=float(b), sigma=float(sigma), M_v=M_v, L=L,
                        B=np.diag(mass.astype(complex)), x3=x3, D=D)


@dataclass(frozen=True)
class Spectrum:
    """Filtered eigenvalues sorted by ascending decay rate (real part)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0].real)


_pinned = None  # True once _scipy_linalg set scipy's OpenBLAS to one thread, False if it could not


def _scipy_linalg():
    """`scipy.linalg`, imported on first use and not at load (0.3 s that no surface-energy
    command should pay).  The first call sets scipy's bundled OpenBLAS to one thread for
    the rest of the process: a second thread only spins beside LAPACK on matrices this
    small.  numpy's copy, and a scipy without the wheel's `scipy.libs`, keep their pools."""
    global _pinned
    import scipy.linalg
    if _pinned is None:
        import ctypes, glob, os
        libs = glob.glob(os.path.dirname(scipy.__path__[0]) + "/scipy.libs/libscipy_openblas*.so")
        try:
            ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads(1)
            _pinned = True
        except (IndexError, OSError, AttributeError):
            _pinned = False
    return scipy.linalg


def solve_spectrum(op: ModeOperator) -> Spectrum:
    """Dense generalized eigensolve with residual-based spurious-mode filter."""
    linalg = _scipy_linalg()
    try:
        w, V = linalg.eig(op.L, op.B)
    except Exception as exc:  # pragma: no cover - scipy failure paths
        raise NumericError(f"eigensolver failed at k={op.k}: {exc}") from exc
    # residual ||L v - w B v|| / ||v|| of every finite eigenpair with a nonzero vector;
    # B is diagonal with 0/1 entries, so B V is an exact row scale.  L V runs on scipy's
    # one-thread OpenBLAS: alternating it with numpy's copy, whose pool keeps its default
    # size, lets each pool's spinning workers starve the other's.
    finite = np.isfinite(w)
    R = linalg.blas.zgemm(1.0, op.L, V) - op.B.diagonal()[:, None] * V * np.where(finite, w, 0.0)
    nv = np.linalg.norm(V, axis=0)
    res = np.linalg.norm(R, axis=0) / np.where(nv > 0.0, nv, 1.0)
    keep = np.flatnonzero(finite & (nv > 0.0) & (res <= RESIDUAL_FILTER))
    if keep.size == 0:
        raise NumericError(
            f"no eigenvalues passed the residual filter at k={op.k}; "
            f"condition of L: {np.linalg.cond(op.L):.2e}"
        )
    keep = keep[np.argsort(w[keep].real, kind="stable")]
    return Spectrum(eigenvalues=w[keep], eigenvectors=V[:, keep], residuals=res[keep])


def mode_sigma(density: EnergyDensity, g: float, k, n: int) -> float:
    """sigma(k) entering the mode operator; zero on the frozen-eta k = 0 branch."""
    return 0.0 if all(c == 0 for c in k) else hessian_symbol(density, g, k, n=n)


def mode_sweep(density: EnergyDensity, g: float, b: float, kmax: int, M_v: int,
               n: int = 2) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """Filtered eigenvalues at k = 0 and at each representative with 0 < |k|_inf <= kmax.

    Returns the wavevectors and, in the same order, their eigenvalues sorted
    by ascending real part.  Eigenvectors are dropped as each mode finishes,
    so a sweep holds only eigenvalues in memory.

    One eigensolve serves each mirror class (|k_1| .. |k_n|, sigma(k)), sigma
    keyed by its exact float: L(a, -b) = S L(a, b) S entry for entry, S
    negating the u_2 block, since kappa enters L only as +-2 pi k_j and through
    sign-blind squares.  At M_v = 24 zggev returns the same eigenvalues for
    both up to the sign of a zero (tests/test_mirror_sweep.py); at some other
    M_v a pair's Im signs differ, a choice roundoff makes either way (ROADMAP
    item 11(a)).  Swapped members are not shared: their sigma and |kappa|^2 can
    round apart and their Im lambda_2 signs differ (items 11(a), (c)).  Rows of
    one class share one read-only array.
    """
    modes = [(0,) * n] + conjugacy_representatives(kmax, n)
    classes, eigs = {}, []
    for kt in modes:
        sigma = mode_sigma(density, g, kt, n)
        key = (tuple(map(abs, kt)), sigma.hex())  # hex keeps -0.0 apart from 0.0
        if key not in classes:
            w = solve_spectrum(assemble_mode(kt, b, sigma, M_v)).eigenvalues
            w.flags.writeable = False
            classes[key] = w
        eigs.append(classes[key])
    return modes, eigs


def global_decay_rate(density: EnergyDensity, g: float, b: float, kmax: int, M_v: int,
                      n: int = 2) -> tuple[float, tuple[int, ...]]:
    """Slowest decay rate over 0 < |k|_inf <= kmax plus the k = 0 branch."""
    modes, eigs = mode_sweep(density, g, b, kmax, M_v, n)
    rates = [float(w[0].real) for w in eigs]
    i = int(np.argmin(rates))
    return rates[i], modes[i]
