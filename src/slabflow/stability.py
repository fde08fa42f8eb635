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
surface dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import scipy.linalg

from .densities import EnergyDensity
from .geometry import chebyshev_lobatto
from .surface_energy import hessian_symbol

__all__ = [
    "ModeOperator",
    "Spectrum",
    "NumericError",
    "assemble_mode",
    "solve_spectrum",
    "resolvent_solve",
    "mode_sigma",
    "mode_sweep",
    "global_decay_rate",
    "conjugacy_representatives",
]

RESIDUAL_FILTER = 1e-8


class NumericError(RuntimeError):
    """Eigensolver or linear-solver failure."""


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
    def dim(self) -> int:
        return (self.n + 2) * self.M_v + 1

    def slice_u(self, j: int) -> slice:
        return slice(j * self.M_v, (j + 1) * self.M_v)

    @property
    def slice_p(self) -> slice:
        return slice((self.n + 1) * self.M_v, (self.n + 2) * self.M_v)

    @property
    def idx_eta(self) -> int:
        return (self.n + 2) * self.M_v

    def pde_time_derivative(self, x: np.ndarray) -> np.ndarray:
        """Trace of the evolution equations on the state: (du/dt, dp/dt=0, deta/dt).

        du/dt = -grad p + lap u at every node (momentum trace), and
        deta/dt = u3(top).  The pressure slot is left zero.
        """
        n, M = self.n, self.M_v
        kappa = 2.0 * np.pi * np.asarray(self.k, dtype=float)
        k2 = float(np.dot(kappa, kappa))
        lap = self.D @ self.D - k2 * np.eye(M)
        p = x[self.slice_p]
        out = np.zeros_like(x)
        for j in range(n):
            out[self.slice_u(j)] = lap @ x[self.slice_u(j)] - 1j * kappa[j] * p
        out[self.slice_u(n)] = lap @ x[self.slice_u(n)] - self.D @ p
        out[self.idx_eta] = x[self.slice_u(n)][0]
        return out


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
    D2 = D @ D
    kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
    k2 = float(np.dot(kappa, kappa))
    eye = np.eye(M_v)

    dim = (n + 2) * M_v + 1
    L = np.zeros((dim, dim), dtype=complex)
    B = np.zeros((dim, dim), dtype=complex)

    def su(j):
        return slice(j * M_v, (j + 1) * M_v)

    sp = slice((n + 1) * M_v, (n + 2) * M_v)
    ie = (n + 2) * M_v
    top, bot = 0, M_v - 1
    interior = list(range(1, M_v - 1))

    # momentum rows: lambda u = (k2 - D2) u + grad p
    for j in range(n + 1):
        r = su(j)
        rows = np.array(interior) + j * M_v
        L[np.ix_(rows, range(r.start, r.stop))] += (k2 * eye - D2)[interior, :]
        if j < n:
            L[rows, np.arange(sp.start, sp.stop)[interior]] += 1j * kappa[j]
        else:
            L[np.ix_(rows, range(sp.start, sp.stop))] += D[interior, :]
        B[rows, rows] = 1.0

    # no-slip bottom rows
    for j in range(n + 1):
        L[j * M_v + bot, j * M_v + bot] = 1.0

    # top rows: tangential stress for horizontal components, normal stress for u3
    for j in range(n):
        r = j * M_v + top
        L[r, su(j)] += D[top, :]
        L[r, n * M_v + top] += 1j * kappa[j]
    r = n * M_v + top
    L[r, sp.start + top] = 1.0
    L[r, su(n)] += -2.0 * D[top, :]
    L[r, ie] = -sigma

    # divergence rows (all vertical nodes)
    for i in range(M_v):
        r = sp.start + i
        for j in range(n):
            L[r, j * M_v + i] += 1j * kappa[j]
        L[r, su(n)] += D[i, :]

    # kinematic row: lambda eta = -u3(top); frozen eta on the k = 0 branch
    if k2 == 0.0:
        L[ie, ie] = 1.0
    else:
        B[ie, ie] = 1.0
        L[ie, n * M_v + top] = -1.0

    return ModeOperator(k=kt, b=float(b), sigma=float(sigma), M_v=M_v, L=L, B=B, x3=x3, D=D)


@dataclass(frozen=True)
class Spectrum:
    """Filtered eigenvalues sorted by ascending decay rate (real part)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0].real)


def solve_spectrum(op: ModeOperator) -> Spectrum:
    """Dense generalized eigensolve with residual-based spurious-mode filter."""
    try:
        w, V = scipy.linalg.eig(op.L, op.B)
    except Exception as exc:  # pragma: no cover - scipy failure paths
        raise NumericError(f"eigensolver failed at k={op.k}: {exc}") from exc
    keep, res = [], []
    for i in range(w.size):
        if not np.isfinite(w[i]):
            continue
        v = V[:, i]
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        r = np.linalg.norm(op.L @ v - w[i] * (op.B @ v)) / nv
        if r <= RESIDUAL_FILTER:
            keep.append(i)
            res.append(r)
    if not keep:
        raise NumericError(
            f"no eigenvalues passed the residual filter at k={op.k}; "
            f"condition of L: {np.linalg.cond(op.L):.2e}"
        )
    keep = np.asarray(keep)
    order = np.argsort(w[keep].real, kind="stable")
    keep = keep[order]
    return Spectrum(
        eigenvalues=w[keep],
        eigenvectors=V[:, keep],
        residuals=np.asarray(res)[order],
    )


def resolvent_solve(op: ModeOperator, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (B/dt + L) x = (B rhs)/dt, the backward-Euler update from state rhs.

    Constraint rows carry no mass, so the solution satisfies them exactly;
    for an eigenvector rhs the solution is rhs / (1 + lambda dt).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A = op.B / dt + op.L
    b = (op.B @ rhs) / dt
    try:
        x = scipy.linalg.solve(A, b)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent solve failed at k={op.k}: {exc}") from exc
    scale = np.linalg.norm(b)
    resid = np.linalg.norm(A @ x - b)
    if scale > 0 and resid > 1e-10 * max(scale, np.linalg.norm(x) / dt):
        raise NumericError(f"resolvent residual {resid:.2e} too large at k={op.k}")
    return x


def conjugacy_representatives(kmax: int, n: int = 2) -> list[tuple[int, ...]]:
    """Nonzero wavevectors with 0 < |k|_inf <= kmax, one per conjugate pair."""
    reps = []
    for idx in product(range(-kmax, kmax + 1), repeat=n):
        if all(c == 0 for c in idx):
            continue
        if idx < tuple(-c for c in idx):
            continue
        reps.append(idx)
    reps.sort(key=lambda kt: (sum(c * c for c in kt), kt))
    return reps


def mode_sigma(density: EnergyDensity, g: float, k, n: int) -> float:
    """sigma(k) entering the mode operator; zero on the frozen-eta k = 0 branch."""
    return 0.0 if all(c == 0 for c in k) else hessian_symbol(density, g, k, n=n)


def mode_sweep(
    density: EnergyDensity,
    g: float,
    b: float,
    kmax: int,
    M_v: int,
    n: int = 2,
    threads: int = 1,
) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """Filtered eigenvalues at k = 0 and at each representative with 0 < |k|_inf <= kmax.

    Returns the wavevectors and, in the same order, their eigenvalues sorted
    by ascending real part.  Eigenvectors are dropped as each mode finishes,
    so a sweep holds only eigenvalues in memory.
    """

    def eigenvalues(kt):
        op = assemble_mode(kt, b, mode_sigma(density, g, kt, n), M_v)
        return solve_spectrum(op).eigenvalues

    modes = [(0,) * n] + conjugacy_representatives(kmax, n)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return modes, list(ex.map(eigenvalues, modes))
    return modes, [eigenvalues(kt) for kt in modes]


def global_decay_rate(
    density: EnergyDensity,
    g: float,
    b: float,
    kmax: int,
    M_v: int,
    n: int = 2,
    threads: int = 1,
) -> tuple[float, tuple[int, ...]]:
    """Slowest decay rate over 0 < |k|_inf <= kmax plus the k = 0 branch."""
    modes, eigs = mode_sweep(density, g, b, kmax, M_v, n, threads)
    rates = [float(w[0].real) for w in eigs]
    i = int(np.argmin(rates))
    return rates[i], modes[i]
