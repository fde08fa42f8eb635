"""Time integration of the linearized slab flow and its energy bookkeeping.

The linearized system diagonalizes over horizontal wavevectors, so a state
is a set of per-mode profile vectors (one conjugacy representative per
excited wavevector; the -k content is implied by reality).  Steps are
implicit (Crank-Nicolson by default, backward Euler optionally): each mode
set caches the stack of its per-mode one-step propagators, real in the
frame u_h -> -i u_h, and one real batched product advances every mode; the
functionals are batched over the same stack.

Functionals follow three conventions:
  * equilibrium (E_eq, D_eq): quadratic forms of the unknowns and their
    derivatives up to parabolic order two (identity, d_t, horizontal
    first and second derivatives);
  * improved (E_imp, D_imp): Sobolev norms of the unknowns;
  * geometric (E_geo, D_geo): the same sums with volume weight J(eta),
    A-symmetrized gradients, the full surface energy W(eta) in place of
    its quadratic approximation, and Q_eta in the derivative copies.

Time derivatives entering the functionals are the evolution equations
traced on the current state (momentum trace for d_t u, the kinematic
trace for d_t eta).  These coincide with the construction of the initial
time derivatives at t = 0 and keep the discrete energy-dissipation
residual second order in dt uniformly in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.linalg

from . import geometry as geo
from . import surface_energy as se
from .densities import EnergyDensity
from .fourier import SpectralField, derivative_multiplier, hermitian_scatter, mode_samples
from .geometry import BulkField, FlattenedDomain
# perfbench/tracing.py wraps assemble_mode and solve_spectrum on this module.
from .stability import (ModeLayout, ModeOperator, NumericError, assemble_mode, mode_sigma,
                        solve_spectrum, time_derivative_trace)

__all__ = [
    "ModeSeed",
    "FlattenedState",
    "EnergyTrace",
    "Simulator",
    "SimulationSettings",
    "measure_decay_rate",
    "FitError",
]


@dataclass(frozen=True)
class ModeSeed:
    """Initial amplitude request for one wavevector."""

    k: tuple[int, ...]
    eta: complex = 0.0
    u: complex = 0.0


def _canonical_mode(k, n: int) -> tuple[tuple[int, ...], bool]:
    """Conjugacy representative of k and whether conjugation was applied."""
    kt = (int(k),) if np.isscalar(k) else tuple(int(ki) for ki in k)
    if len(kt) != n:
        raise ValueError(f"wavevector {kt} has wrong dimension")
    neg = tuple(-c for c in kt)
    if kt < neg:
        return neg, True
    return kt, False


@dataclass
class FlattenedState:
    """Bulk velocity and pressure plus surface elevation on the fixed strip."""

    dom: FlattenedDomain
    modes: dict[tuple[int, ...], np.ndarray]
    t: float = 0.0

    def copy(self) -> "FlattenedState":
        return FlattenedState(self.dom, {k: v.copy() for k, v in self.modes.items()}, self.t)

    @property
    def layout(self) -> ModeLayout:
        return ModeLayout(self.dom.n, self.dom.M_v)

    def stack(self) -> tuple[tuple, np.ndarray]:
        """The wavevectors and their mode vectors stacked as rows, shape (modes, dim)."""
        keys = tuple(self.modes)
        X = np.array(list(self.modes.values()), dtype=complex)
        return keys, X.reshape(len(keys), self.layout.dim)

    def _velocity_stack(self):
        """Velocity blocks (modes, n+1, M_v) and kappa = 2 pi k (modes, n) of the stack."""
        keys, X = self.stack()
        u, _, _ = self.layout.blocks(X)
        return u, 2.0 * np.pi * np.array(keys, dtype=float).reshape(len(keys), self.dom.n)

    # -- materialization ----------------------------------------------------

    def _samples(self, block, lead: tuple[int, ...]) -> np.ndarray:
        """Physical samples of one block of every mode vector, shape lead + (*grid, M_v)."""
        M_v = self.dom.M_v
        return mode_samples(self.dom.horizontal,
                            {k: x[block].reshape(lead + (M_v,)) for k, x in self.modes.items()},
                            lead, (M_v,))

    def eta(self) -> SpectralField:
        idx = self.layout.eta
        return SpectralField(self.dom.horizontal, hermitian_scatter(
            self.dom.horizontal, {k: x[idx] for k, x in self.modes.items()}))

    def velocity(self) -> BulkField:
        lay = self.layout
        return BulkField(self.dom, self._samples(slice(0, lay.p.start), (lay.n + 1,)))

    def pressure(self) -> BulkField:
        return BulkField(self.dom, self._samples(self.layout.p, ()))

    # -- invariant diagnostics ----------------------------------------------

    def mass(self) -> float:
        k0 = (0,) * self.dom.n
        if k0 not in self.modes:
            return 0.0
        return float(self.modes[k0][self.layout.eta].real)

    def divergence_residual(self) -> float:
        u, kappa = self._velocity_stack()
        div = u[:, -1] @ self.dom.D3.T + np.sum(1j * kappa[:, :, None] * u[:, :-1], axis=1)
        return float(np.max(np.abs(div), initial=0.0))

    def bottom_slip(self) -> float:
        u, _ = self._velocity_stack()
        return float(np.max(np.abs(u[..., -1]), initial=0.0))

    def tangential_stress_residual(self) -> float:
        u, kappa = self._velocity_stack()
        res = u[:, :-1] @ self.dom.D3[0] + 1j * kappa * u[:, -1:, 0]
        return float(np.max(np.abs(res), initial=0.0))


@dataclass
class EnergyTrace:
    """Per-record functional values along a trajectory."""

    t: list = field(default_factory=list)
    E_eq: list = field(default_factory=list)
    D_eq: list = field(default_factory=list)
    E_imp: list = field(default_factory=list)
    D_imp: list = field(default_factory=list)
    E_geo: list = field(default_factory=list)
    D_geo: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    ed_t: list = field(default_factory=list)
    ed_residual: list = field(default_factory=list)
    ed_dissipation: list = field(default_factory=list)

    def append(self, t, rec, mass):
        self.t.append(t)
        self.E_eq.append(rec["E_eq"])
        self.D_eq.append(rec["D_eq"])
        self.E_imp.append(rec["E_imp"])
        self.D_imp.append(rec["D_imp"])
        self.E_geo.append(rec["E_geo"])
        self.D_geo.append(rec["D_geo"])
        self.mass.append(mass)

    def ed_relative_residual(self) -> float:
        """max |r_n| normalized by the largest midpoint dissipation."""
        if not self.ed_residual:
            return 0.0
        scale = max(self.ed_dissipation)
        if scale == 0.0:
            return float(max(abs(r) for r in self.ed_residual))
        return float(max(abs(r) for r in self.ed_residual) / scale)

    def to_csv(self) -> str:
        """CSV with 17 significant digits, LF endings."""
        lines = ["t,E_eq,D_eq,E_imp,D_imp,E_geo,mass"]
        for i in range(len(self.t)):
            row = [self.t[i], self.E_eq[i], self.D_eq[i], self.E_imp[i],
                   self.D_imp[i], self.E_geo[i], self.mass[i]]
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


class FitError(RuntimeError):
    """Decay-rate fit is not applicable (too few samples or non-positive energy)."""


def measure_decay_rate(trace: EnergyTrace, fraction: float = 0.5):
    """Log-linear least squares of E_eq over the tail of the trace.

    Returns (rate, r_squared, valid); valid requires R^2 >= 0.999.
    """
    t = np.asarray(trace.t, dtype=float)
    E = np.asarray(trace.E_eq, dtype=float)
    if t.size < 10:
        raise FitError("need at least 10 samples")
    start = int(np.floor(t.size * (1.0 - fraction)))
    t, E = t[start:], E[start:]
    if np.any(E <= 0.0):
        raise FitError("energies must be positive for a log-linear fit")
    y = np.log(E)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rate = -float(coef[0])
    return rate, r2, bool(r2 >= 0.999)


@dataclass(frozen=True)
class SimulationSettings:
    dt: float = 1e-3
    horizon: float = 5.0
    output_interval: int = 10
    scheme: str = "crank-nicolson"
    record_ed: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < self.dt or self.output_interval < 1:
            raise ValueError("invalid time settings")
        if self.scheme not in ("crank-nicolson", "backward-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class _ModeSet:
    """Per-mode constants of one mode set, in the order of its stack."""

    kappa: np.ndarray   # 2 pi k, (modes, n)
    k2: np.ndarray      # |kappa|^2
    sigma: np.ndarray   # sigma(k)
    weight: np.ndarray  # 1 at k = 0, 2 for a conjugate pair
    mean: np.ndarray    # k = 0
    hs: np.ndarray      # (4, 4, modes), see Simulator._mode_set


class Simulator:
    """Owner of one physical configuration (density, gravity, domain)."""

    def __init__(self, density: EnergyDensity, g: float, dom: FlattenedDomain):
        self.density = density
        self.g = float(g)
        self.dom = dom
        self.layout = ModeLayout(dom.n, dom.M_v)
        # The only per-mode stores; `op` and `sigma` rebuild on every call, since a
        # cached operator would keep two complex dim x dim matrices per mode alive.
        self._steppers: dict = {}
        self._mode_sets: dict[tuple, _ModeSet] = {}
        # The real frame S: -i on the horizontal velocity blocks, 1 elsewhere.  Every
        # complex entry of a mode operator is an i kappa_j coupling a horizontal
        # velocity to u_3 or p, so S A S^-1 is real; S and S^-1 are exact in floats.
        self._phase = np.ones(self.layout.dim, dtype=complex)
        self._phase[:self.layout.u(dom.n).start] = -1j

    # -- operators -----------------------------------------------------------

    def sigma(self, k) -> float:
        return mode_sigma(self.density, self.g, np.atleast_1d(k), self.dom.n)

    def op(self, k) -> ModeOperator:
        kt = tuple(int(ki) for ki in np.atleast_1d(k))
        return assemble_mode(kt, self.dom.b, self.sigma(kt), self.dom.M_v)

    # -- initial data ----------------------------------------------------------

    def admissible_data(self, seeds: list[ModeSeed]) -> FlattenedState:
        """State built from per-mode profiles that satisfy, exactly at the
        collocation nodes: no slip at the bottom, zero tangential stress on
        top, the solenoidality constraint, and zero average of eta."""
        dom, lay = self.dom, self.layout
        n = dom.n
        D, x3, b = dom.D3, dom.x3, dom.b
        modes: dict[tuple[int, ...], np.ndarray] = {}
        for seed in seeds:
            kt, conj = _canonical_mode(seed.k, n)
            eta_a = np.conj(seed.eta) if conj else complex(seed.eta)
            u_a = np.conj(seed.u) if conj else complex(seed.u)
            x = modes.setdefault(kt, np.zeros(lay.dim, dtype=complex))
            if all(c == 0 for c in kt):
                if eta_a != 0:
                    raise ValueError("eta must have zero average (no k = 0 content)")
                # horizontal mean flow: r(-b) = 0, r'(-b) = 0, r'(0) = 0
                r = (x3 + b) ** 2 * (1.0 - 2.0 / (3.0 * b) * (x3 + b))
                r = r / np.max(np.abs(r))
                for j in range(n):
                    x[lay.u(j)] += u_a.real * r
            else:
                kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
                k2 = float(np.dot(kappa, kappa))
                x[lay.eta] += eta_a
                if u_a != 0:
                    # w(-b) = w'(-b) = 0 and w''(0) = -k2 w(0)
                    c1 = -(2.0 + k2 * b * b) / (4.0 * b)
                    w = (x3 + b) ** 2 * (1.0 + c1 * x3)
                    w = w / np.max(np.abs(w))
                    dw = D @ w
                    x[lay.u(n)] += u_a * w
                    for j in range(n):
                        x[lay.u(j)] += u_a * 1j * kappa[j] * dw / k2
        state = FlattenedState(dom, modes, 0.0)
        geo.geometric_coefficients(state.eta(), dom)  # raises DomainDegenerate if too steep
        return state

    def eigenmode_data(self, k, amplitude: float, index: int = 0) -> FlattenedState:
        """Seed the index-th slowest eigenvector of the mode operator at k.

        Raises ValueError unless 0 <= index < the number of eigenpairs that
        pass the spectral filter at k.
        """
        kt, _ = _canonical_mode(k, self.dom.n)
        hermitian_scatter(self.dom.horizontal, {kt: 0.0})  # an out-of-band k raises here
        spec = solve_spectrum(self.op(kt))
        if not 0 <= index < len(spec.eigenvalues):
            raise ValueError(f"eigenmode index {index} out of range: "
                             f"{len(spec.eigenvalues)} eigenpairs resolved at k={kt}")
        v = spec.eigenvectors[:, index].copy()
        scale = np.max(np.abs(v))
        v *= amplitude / scale
        if all(c == 0 for c in kt):
            v = v.real.astype(complex)
        return FlattenedState(self.dom, {kt: v}, 0.0)

    def init_pressure(self, state: FlattenedState) -> FlattenedState:
        """Fill the pressure blocks with the linearized compatible pressure.

        Per mode: p'' = |kappa|^2 p in the strip, p(0) = 2 u3'(0) + sigma eta,
        p'(-b) = (u3'' - |kappa|^2 u3)(-b); solved by vertical collocation.
        """
        dom, lay = self.dom, self.layout
        M_v = dom.M_v
        D = dom.D3
        D2 = D @ D
        out = state.copy()
        for kt, x in out.modes.items():
            kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
            k2 = float(np.dot(kappa, kappa))
            u3 = x[lay.u(dom.n)]
            eta_h = x[lay.eta]
            A = D2 - k2 * np.eye(M_v)
            rhs = np.zeros(M_v, dtype=complex)
            A = A.astype(complex)
            A[0, :] = 0.0
            A[0, 0] = 1.0
            rhs[0] = 2.0 * (D @ u3)[0] + self.sigma(kt) * eta_h
            A[-1, :] = D[-1, :]
            rhs[-1] = (D2 @ u3)[-1] - k2 * u3[-1]
            p = np.linalg.solve(A, rhs)
            resid = np.max(np.abs(A @ p - rhs))
            if resid > 1e-10 * max(1.0, np.max(np.abs(rhs))):
                raise NumericError(f"pressure solve residual {resid:.2e} at k={kt}")
            x[lay.p] = p
        return out

    # -- stepping --------------------------------------------------------------

    def _propagator(self, keys: tuple, dt: float, scheme: str) -> np.ndarray:
        """One-step propagators of a mode set in the real frame, stacked (modes, dim, dim):
        S A1^-1 A2 S^-1, factored from the real S A1 S^-1 and S A2 S^-1."""
        key = (keys, dt, scheme)
        if key not in self._steppers:
            theta = 0.5 if scheme == "crank-nicolson" else 1.0
            s = self._phase
            P = np.empty((len(keys), self.layout.dim, self.layout.dim))
            for i, kt in enumerate(keys):
                op = self.op(kt)
                A1 = op.B / dt + theta * op.L
                A2 = op.B / dt - (1.0 - theta) * op.L
                # constraint rows (no mass) must hold at the new time exactly
                algebraic = np.where(np.abs(op.B).sum(axis=1) == 0.0)[0]
                A2[algebraic, :] = 0.0
                if all(c == 0 for c in kt):
                    # the k = 0 pressure is fixed only up to a constant and its
                    # divergence rows are dependent: gauge p(bottom) = 0 instead
                    # of the bottom-node divergence row
                    bottom = self.layout.p.stop - 1
                    A1[bottom, :] = 0.0
                    A1[bottom, bottom] = 1.0
                A1, A2 = (s[:, None] * A * s.conj() for A in (A1, A2))
                if np.any(A1.imag) or np.any(A2.imag):
                    raise NumericError(f"stepper matrices at k={kt} are not real in the frame")
                P[i] = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A1.real), A2.real)
            self._steppers[key] = P
        return self._steppers[key]

    def _advance(self, keys: tuple, X: np.ndarray, dt: float, scheme: str) -> np.ndarray:
        """Mode vectors X (modes, dim) one step on, as a new array: one real batched
        product on the real and imaginary parts of S X, a small dgemm per mode that
        OpenBLAS keeps on the calling thread.  The k = 0 surface entry is carried."""
        s = self._phase
        Y = (X * s).view(float).reshape(X.shape + (2,))
        Y = (self._propagator(keys, dt, scheme) @ Y).view(complex)[..., 0] * s.conj()
        mean, eta = self._mode_set(keys).mean, self.layout.eta
        Y[mean, eta] = X[mean, eta]  # mass: d_t eta_hat(0) = 0
        Y[mean] = Y[mean].real
        return Y

    def step(self, state: FlattenedState, dt: float,
             scheme: str = "crank-nicolson") -> FlattenedState:
        """One implicit step; the k = 0 surface entry is carried unchanged."""
        keys, X = state.stack()
        return FlattenedState(self.dom, dict(zip(keys, self._advance(keys, X, dt, scheme))),
                              state.t + dt)

    # -- functionals -------------------------------------------------------------

    def _mode_set(self, keys: tuple) -> "_ModeSet":
        """Per-mode constants of the wavevectors `keys`, cached per mode set."""
        if keys not in self._mode_sets:
            n = self.dom.n
            kappa = 2.0 * np.pi * np.array(keys, dtype=float).reshape(len(keys), n)
            mean = ~np.any(kappa, axis=1)
            # hs[s, d]: weight of the d-th vertical derivative in the H^s norm, the
            # sum of prod |kappa_i|^(2 m_i) over horizontal orders with |m| <= s - d
            hs = np.zeros((4, 4, len(keys)))
            for multi in product(range(4), repeat=n):
                h = sum(multi)
                if h <= 3:
                    term = np.prod(np.abs(kappa) ** (2.0 * np.asarray(multi)), axis=1)
                    for order in range(h, 4):
                        hs[order, :order - h + 1] += term
            self._mode_sets[keys] = _ModeSet(
                kappa=kappa, k2=np.sum(kappa**2, axis=1),
                sigma=np.array([self.sigma(kt) for kt in keys]),
                weight=np.where(mean, 1.0, 2.0), mean=mean, hs=hs)
        return self._mode_sets[keys]

    def _alpha_set(self):
        """Distinct multi-indices of parabolic order <= 2 with their multiplicity:
        (time order, horizontal orders, weight).  The mixed derivative
        d_i d_j (i < j) stands for both orders of differentiation, weight 2."""
        n = self.dom.n
        zero = (0,) * n

        def e(*axes):
            return tuple(sum(1 for i in axes if i == a) for a in range(n))

        out = [(0, zero, 1), (1, zero, 1)]
        out += [(0, e(i), 1) for i in range(n)]
        out += [(0, e(i, j), 1 if i == j else 2) for i in range(n) for j in range(i, n)]
        return out

    def _profiles(self, keys: tuple, X: np.ndarray):
        """The constants of a stack X of mode vectors with wavevectors `keys`, and
        the blocks of the stack and of its time derivative: the evolution
        equations traced on the state (the construction used for initial data),
        with the surface average frozen.  Velocities are (modes, n+1, M_v),
        pressures (modes, M_v)."""
        c = self._mode_set(keys)
        u, p, eta = self.layout.blocks(X)
        du, _, deta = self.layout.blocks(time_derivative_trace(X, c.kappa, self.dom.D3))
        return c, u, du, p, eta, np.where(c.mean, 0.0, deta)

    def _equilibrium_pair(self, state: FlattenedState):
        """E_eq and D_eq: parabolic-order-two sums of the equilibrium forms."""
        return self._equilibrium_stack(*state.stack())

    def _equilibrium_stack(self, keys: tuple, X: np.ndarray):
        """E_eq and D_eq of a stack X of mode vectors with wavevectors `keys`.

        The horizontal-derivative copies of one mode are scalar multiples of
        it, so the sum over spatial multi-indices collapses to the factor
        S_k = 1 + |kappa|^2 + |kappa|^4, leaving the time-derivative copy as
        the only extra evaluation.
        """
        w3 = self.dom.w3
        c, u, du, _, eta, deta = self._profiles(keys, X)
        # (copy, mode): the state with factor S_k, its time derivative with 1
        U, Z = np.stack([u, du]), np.stack([eta, deta])
        f = c.weight * np.stack([1.0 + c.k2 + c.k2**2, np.ones_like(c.k2)])
        E = 0.5 * np.sum(f * ((np.abs(U) ** 2 @ w3).sum(axis=-1) + c.sigma * np.abs(Z) ** 2))
        # G[..., i, j, :] = d_i u_j: i < n horizontal, i = n vertical
        G = np.concatenate([1j * c.kappa[:, :, None, None] * U[:, :, None],
                            (U @ self.dom.D3.T)[:, :, None]], axis=2)
        sym = np.abs(G + np.swapaxes(G, 2, 3)) ** 2
        Dd = 0.5 * np.sum(f * (sym.sum(axis=(2, 3)) @ w3))
        return float(E), float(Dd)

    def _improved_pair(self, state: FlattenedState):
        """E_imp and D_imp: the Sobolev-norm versions."""
        n, w3, D = self.dom.n, self.dom.w3, self.dom.D3
        c, u, du, p, eta, deta = self._profiles(*state.stack())

        def vertical_norms(f, s):
            """sum over components of w3 |D^d f|^2 for d = 0 .. s, shape (s+1, modes)."""
            out = []
            for _ in range(s + 1):
                out.append((np.abs(f) ** 2 @ w3).sum(axis=-1))
                f = f @ D.T
            return np.array(out)

        def hs_sq(norms, s):
            return np.sum(c.hs[s, :s + 1] * norms[:s + 1], axis=0)

        Nu, Ndu, Np = vertical_norms(u, 3), vertical_norms(du, 1), vertical_norms(p[:, None], 2)
        bracket = 1.0 + c.k2
        ddeta = du[:, n, 0]  # d_t^2 eta = d_t u3 at the top
        E = c.weight * (
            hs_sq(Nu, 2) + hs_sq(Ndu, 0) + hs_sq(Np, 1)
            + bracket**4.5 * np.abs(eta) ** 2
            + bracket**2 * np.abs(deta) ** 2
        )
        Dd = c.weight * (
            hs_sq(Nu, 3) + hs_sq(Ndu, 1) + hs_sq(Np, 2)
            + bracket**5.5 * np.abs(eta) ** 2
            + bracket**2.5 * np.abs(deta) ** 2
            + bracket**0.5 * np.abs(ddeta) ** 2
        )
        return float(np.sum(E)), float(np.sum(Dd))

    def _geometric_pair(self, state: FlattenedState):
        """E_geo and D_geo: J-weighted, A-symmetrized, full surface energy.

        Each derivative copy carries the square root of its multiplicity,
        so every sum over copies is plain.  The copies and their horizontal
        gradients are summed directly over the excited modes
        (`fourier.mode_samples`), the vertical derivative taken on the
        per-mode profiles first.  One jet of the stacked surface copies, copy 0
        being eta, gives W(eta) and, from one Hessian evaluation of the density
        along the jet of eta, Q_eta of the other copies.
        """
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        grid = dom.horizontal
        alphas = self._alpha_set()
        na = len(alphas)

        # content of all copies per mode, (modes, na, nc, M_v) and (modes, na)
        keys, X = state.stack()
        c, u, du, _, eta_h, deta = self._profiles(keys, X)
        factors = np.stack([np.sqrt(w) * np.prod((1j * c.kappa) ** np.asarray(ah, dtype=float),
                                                 axis=1) for _, ah, w in alphas], axis=1)
        timed = np.array([at == 1 for at, _, _ in alphas])
        vel = factors[:, :, None, None] * np.where(timed[:, None, None], du[:, None], u[:, None])
        surf = factors * np.where(timed, deta[:, None], eta_h[:, None])

        # fields[0] holds the copies, fields[1 + i] their d_i: (2+n, na, nc, *grid, M_v).
        # One synthesis keeps the record's temporaries under twice this largest array,
        # the level above which glibc hands the freed heap top back after every record.
        ki = np.array(keys, dtype=int).reshape(len(keys), n) % grid.N
        mult = np.concatenate([np.ones((len(keys), 1)), derivative_multiplier(grid)[ki]], axis=1)
        amps = np.concatenate([mult[:, :, None, None, None] * vel[:, None],
                               (vel @ dom.D3.T)[:, None]], axis=1)
        fields = mode_samples(grid, dict(zip(keys, amps)), amps.shape[1:-1], (M_v,))
        zhat = hermitian_scatter(grid, dict(zip(keys, surf)), (na,))
        eta = SpectralField(grid, zhat[..., 0])  # the identity copy, alphas[0]
        E, Dd = geo.geometric_forms(geo.geometric_coefficients(eta, dom), fields[0], fields[1:])

        # surface energies from one jet of all copies, one transform per derivative:
        # W(eta) for copy 0 and Q_eta for the rest; int zeta^2 by Parseval
        D, _ = se.derivative_tensors(zhat, grid, 2)
        p, M = D[1][0], D[2][0]
        W = self.density.value(p, M)
        se.check_finite(self.density, W)
        vals = se.hessian_form(self.density.hess(p, M), D[1][1:], D[2][1:])
        E += float(np.mean(W)) + 0.5 * float(np.sum(np.mean(vals, axis=tuple(range(1, 1 + n)))))
        E += 0.5 * self.g * float(np.sum(np.abs(zhat) ** 2))
        return E, Dd

    def functionals(self, state: FlattenedState) -> dict:
        """All six functionals on the current state."""
        E_eq, D_eq = self._equilibrium_pair(state)
        E_imp, D_imp = self._improved_pair(state)
        E_geo, D_geo = self._geometric_pair(state)
        rec = {"E_eq": E_eq, "D_eq": D_eq, "E_imp": E_imp,
               "D_imp": D_imp, "E_geo": E_geo, "D_geo": D_geo}
        for k, v in rec.items():
            if not np.isfinite(v):
                raise NumericError(f"functional {k} is not finite")
        return rec

    # -- full runs -----------------------------------------------------------------

    def run(self, state: FlattenedState, settings: SimulationSettings):
        """Integrate and record the functionals; returns (trace, final state).

        The discrete energy-dissipation residual

            r_n = (E_eq(t_{n+1}) - E_eq(t_n)) / dt + D_eq(t_{n+1/2})

        is recorded for every step, with the half-step dissipation taken as
        the average of the two node values.  Node values use the same
        time-derivative copies as `functionals` (the evolution equations
        traced on the state, i.e. the initial-data construction formulas at
        every node), which keeps the residual second order in dt uniformly.
        Between records the state stays one stacked array, advanced and
        evaluated by the same code as `step` and `_equilibrium_pair`.
        """
        dt = settings.dt
        trace = EnergyTrace()
        nsteps = int(round(settings.horizon / dt))
        trace.append(state.t, self.functionals(state), state.mass())
        current, t = state, state.t
        keys, X = state.stack()
        if settings.record_ed:
            E_prev, D_prev = self._equilibrium_stack(keys, X)
        for step_i in range(1, nsteps + 1):
            X = self._advance(keys, X, dt, settings.scheme)
            if settings.record_ed:
                E_new, D_new = self._equilibrium_stack(keys, X)
                D_half = 0.5 * (D_prev + D_new)
                trace.ed_t.append(t + 0.5 * dt)
                trace.ed_residual.append((E_new - E_prev) / dt + D_half)
                trace.ed_dissipation.append(D_half)
                E_prev, D_prev = E_new, D_new
            t = t + dt
            if step_i % settings.output_interval == 0 or step_i == nsteps:
                current = FlattenedState(self.dom, dict(zip(keys, X)), t)
                trace.append(t, self.functionals(current), current.mass())
        return trace, current
