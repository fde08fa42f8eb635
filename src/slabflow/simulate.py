"""Time integration of the linearized slab flow and its energy bookkeeping.

The linearized system diagonalizes over horizontal wavevectors, so a state
is a set of per-mode profile vectors (one conjugacy representative per
excited wavevector; the -k content is implied by reality).  Steps are
implicit (Crank-Nicolson by default, backward Euler optionally) through
cached factorizations of the per-mode operators.

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
from .fourier import SpectralField, derivative_multiplier, hermitian_scatter
from .geometry import BulkField, FlattenedDomain
from .stability import ModeOperator, NumericError, assemble_mode, mode_sigma, solve_spectrum

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

    # -- materialization ----------------------------------------------------

    def _mode_blocks(self, M_v: int, n: int, x: np.ndarray):
        u = [x[j * M_v:(j + 1) * M_v] for j in range(n + 1)]
        p = x[(n + 1) * M_v:(n + 2) * M_v]
        eta = x[(n + 2) * M_v]
        return u, p, eta

    def _samples(self, block, tail: tuple[int, ...]) -> np.ndarray:
        """Physical samples of one block of every mode vector, shape grid.shape + tail."""
        grid = self.dom.horizontal
        c = hermitian_scatter(grid, {k: x[block].reshape(tail) for k, x in self.modes.items()},
                              tail)
        return np.fft.ifftn(c, axes=tuple(range(grid.n))).real * grid.npoints

    def eta(self) -> SpectralField:
        idx = (self.dom.n + 2) * self.dom.M_v
        return SpectralField(self.dom.horizontal, hermitian_scatter(
            self.dom.horizontal, {k: x[idx] for k, x in self.modes.items()}))

    def velocity(self) -> BulkField:
        n, M_v = self.dom.n, self.dom.M_v
        vals = self._samples(slice(0, (n + 1) * M_v), (n + 1, M_v))
        return BulkField(self.dom, np.moveaxis(vals, -2, 0))

    def pressure(self) -> BulkField:
        n, M_v = self.dom.n, self.dom.M_v
        return BulkField(self.dom, self._samples(slice((n + 1) * M_v, (n + 2) * M_v), (M_v,)))

    # -- invariant diagnostics ----------------------------------------------

    def mass(self) -> float:
        k0 = (0,) * self.dom.n
        if k0 not in self.modes:
            return 0.0
        return float(self.modes[k0][(self.dom.n + 2) * self.dom.M_v].real)

    def divergence_residual(self) -> float:
        M_v, n = self.dom.M_v, self.dom.n
        D = self.dom.D3
        worst = 0.0
        for k, x in self.modes.items():
            u, _, _ = self._mode_blocks(M_v, n, x)
            kappa = 2.0 * np.pi * np.asarray(k, dtype=float)
            div = D @ u[n]
            for j in range(n):
                div = div + 1j * kappa[j] * u[j]
            worst = max(worst, float(np.max(np.abs(div))))
        return worst

    def bottom_slip(self) -> float:
        M_v, n = self.dom.M_v, self.dom.n
        worst = 0.0
        for _, x in self.modes.items():
            u, _, _ = self._mode_blocks(M_v, n, x)
            worst = max(worst, float(max(np.abs(u[j][-1]) for j in range(n + 1))))
        return worst

    def tangential_stress_residual(self) -> float:
        M_v, n = self.dom.M_v, self.dom.n
        D = self.dom.D3
        worst = 0.0
        for k, x in self.modes.items():
            u, _, _ = self._mode_blocks(M_v, n, x)
            kappa = 2.0 * np.pi * np.asarray(k, dtype=float)
            for j in range(n):
                res = (D @ u[j])[0] + 1j * kappa[j] * u[n][0]
                worst = max(worst, float(abs(res)))
        return worst


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
        if self.dt <= 0 or self.horizon <= 0 or self.output_interval < 1:
            raise ValueError("invalid time settings")
        if self.scheme not in ("crank-nicolson", "backward-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


class Simulator:
    """Owner of one physical configuration (density, gravity, domain)."""

    def __init__(self, density: EnergyDensity, g: float, dom: FlattenedDomain):
        self.density = density
        self.g = float(g)
        self.dom = dom
        self._ops: dict[tuple[int, ...], ModeOperator] = {}
        self._steppers: dict = {}
        self._sigmas: dict[tuple[int, ...], float] = {}

    # -- operators -----------------------------------------------------------

    def sigma(self, k) -> float:
        kt = tuple(int(ki) for ki in np.atleast_1d(k))
        if kt not in self._sigmas:
            self._sigmas[kt] = mode_sigma(self.density, self.g, kt, self.dom.n)
        return self._sigmas[kt]

    def op(self, k) -> ModeOperator:
        kt = tuple(int(ki) for ki in np.atleast_1d(k))
        if kt not in self._ops:
            self._ops[kt] = assemble_mode(kt, self.dom.b, self.sigma(kt), self.dom.M_v)
        return self._ops[kt]

    # -- initial data ----------------------------------------------------------

    def admissible_data(self, seeds: list[ModeSeed]) -> FlattenedState:
        """State built from per-mode profiles that satisfy, exactly at the
        collocation nodes: no slip at the bottom, zero tangential stress on
        top, the solenoidality constraint, and zero average of eta."""
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        D, x3, b = dom.D3, dom.x3, dom.b
        modes: dict[tuple[int, ...], np.ndarray] = {}
        for seed in seeds:
            kt, conj = _canonical_mode(seed.k, n)
            eta_a = np.conj(seed.eta) if conj else complex(seed.eta)
            u_a = np.conj(seed.u) if conj else complex(seed.u)
            x = modes.setdefault(kt, np.zeros((n + 2) * M_v + 1, dtype=complex))
            if all(c == 0 for c in kt):
                if eta_a != 0:
                    raise ValueError("eta must have zero average (no k = 0 content)")
                # horizontal mean flow: r(-b) = 0, r'(-b) = 0, r'(0) = 0
                r = (x3 + b) ** 2 * (1.0 - 2.0 / (3.0 * b) * (x3 + b))
                r = r / np.max(np.abs(r))
                for j in range(n):
                    x[j * M_v:(j + 1) * M_v] += u_a.real * r
            else:
                kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
                k2 = float(np.dot(kappa, kappa))
                x[(n + 2) * M_v] += eta_a
                if u_a != 0:
                    # w(-b) = w'(-b) = 0 and w''(0) = -k2 w(0)
                    c1 = -(2.0 + k2 * b * b) / (4.0 * b)
                    w = (x3 + b) ** 2 * (1.0 + c1 * x3)
                    w = w / np.max(np.abs(w))
                    dw = D @ w
                    x[n * M_v:(n + 1) * M_v] += u_a * w
                    for j in range(n):
                        x[j * M_v:(j + 1) * M_v] += u_a * 1j * kappa[j] * dw / k2
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
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        D = dom.D3
        D2 = D @ D
        out = state.copy()
        for kt, x in out.modes.items():
            kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
            k2 = float(np.dot(kappa, kappa))
            u3 = x[n * M_v:(n + 1) * M_v]
            eta_h = x[(n + 2) * M_v]
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
            x[(n + 1) * M_v:(n + 2) * M_v] = p
        return out

    # -- stepping --------------------------------------------------------------

    def _stepper(self, kt, dt: float, scheme: str):
        key = (kt, dt, scheme)
        if key not in self._steppers:
            op = self.op(kt)
            theta = 0.5 if scheme == "crank-nicolson" else 1.0
            A1 = op.B / dt + theta * op.L
            A2 = op.B / dt - (1.0 - theta) * op.L
            # constraint rows (no mass) must hold at the new time exactly
            algebraic = np.where(np.abs(op.B).sum(axis=1) == 0.0)[0]
            A2[algebraic, :] = 0.0
            self._steppers[key] = (scipy.linalg.lu_factor(A1), A2)
        return self._steppers[key]

    def step(self, state: FlattenedState, dt: float,
             scheme: str = "crank-nicolson") -> FlattenedState:
        """One implicit step; the k = 0 surface entry is carried unchanged."""
        out = state.copy()
        n, M_v = self.dom.n, self.dom.M_v
        for kt, x in state.modes.items():
            lu, A2 = self._stepper(kt, dt, scheme)
            xn = scipy.linalg.lu_solve(lu, A2 @ x)
            if all(c == 0 for c in kt):
                xn[(n + 2) * M_v] = x[(n + 2) * M_v]  # mass: d_t eta_hat(0) = 0
                xn = xn.real.astype(complex)
            out.modes[kt] = xn
        out.t = state.t + dt
        return out

    # -- functionals -------------------------------------------------------------

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

    def _mode_profiles(self, kt, x, dx=None):
        """Velocity/pressure/eta blocks of x and of its time derivative.

        The derivative defaults to the evolution equations traced on x
        (the construction used for initial data); callers integrating in
        time may pass the stepper's own difference quotient instead.
        """
        n, M_v = self.dom.n, self.dom.M_v
        if dx is None:
            dx = self.op(kt).pde_time_derivative(x)
        u = [x[j * M_v:(j + 1) * M_v] for j in range(n + 1)]
        du = [dx[j * M_v:(j + 1) * M_v] for j in range(n + 1)]
        p = x[(n + 1) * M_v:(n + 2) * M_v]
        eta = x[(n + 2) * M_v]
        deta = dx[(n + 2) * M_v]
        if all(c == 0 for c in kt):
            deta = 0.0  # frozen surface average
        return u, du, p, eta, deta

    def _equilibrium_pair(self, state: FlattenedState, dmodes: dict | None = None):
        """E_eq and D_eq: parabolic-order-two sums of the equilibrium forms.

        The horizontal-derivative copies of one mode are scalar multiples of
        it, so the sum over spatial multi-indices collapses to the factor
        S_k = 1 + |kappa|^2 + |kappa|^4, leaving the time-derivative copy as
        the only extra evaluation.  `dmodes` optionally supplies per-mode
        time-derivative vectors; the default is the PDE trace.
        """
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        w3 = dom.w3
        D = dom.D3
        E = 0.0
        Dd = 0.0
        for kt, x in state.modes.items():
            weight = 1.0 if all(c == 0 for c in kt) else 2.0
            kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
            k2 = float(np.dot(kappa, kappa))
            S_k = 1.0 + k2 + k2**2
            sig_g = self.sigma(kt)
            dx = dmodes.get(kt) if dmodes is not None else None
            u, du, p, eta, deta = self._mode_profiles(kt, x, dx)
            for factor, uu, ee in ((S_k, u, eta), (1.0, du, deta)):
                E += weight * factor * 0.5 * sum(float(w3 @ np.abs(c) ** 2) for c in uu)
                E += weight * factor * 0.5 * sig_g * abs(ee) ** 2
                G = np.zeros((n + 1, n + 1, M_v), dtype=complex)
                for i in range(n):
                    for j in range(n + 1):
                        G[i, j] = 1j * kappa[i] * uu[j]
                for j in range(n + 1):
                    G[n, j] = D @ uu[j]
                sym = G + np.swapaxes(G, 0, 1)
                Dd += weight * factor * 0.5 * float(w3 @ np.sum(np.abs(sym) ** 2, axis=(0, 1)))
        return E, Dd

    def _improved_pair(self, state: FlattenedState):
        """E_imp and D_imp: the Sobolev-norm versions."""
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        w3, D = dom.w3, dom.D3

        def bulk_hs_sq(profiles, kappa, s):
            total = 0.0
            for order in range(s + 1):
                for multi in product(range(order + 1), repeat=n + 1):
                    if sum(multi) != order:
                        continue
                    hmult = np.prod(np.abs(kappa) ** np.asarray(multi[:n], dtype=float)) ** 2
                    if hmult == 0.0 and any(multi[:n]):
                        continue
                    for c in profiles:
                        d = c
                        for _ in range(multi[n]):
                            d = D @ d
                        total += hmult * float(w3 @ np.abs(d) ** 2)
            return total

        E = 0.0
        Dd = 0.0
        for kt, x in state.modes.items():
            weight = 1.0 if all(c == 0 for c in kt) else 2.0
            kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
            bracket = 1.0 + float(np.dot(kappa, kappa))
            u, du, p, eta, deta = self._mode_profiles(kt, x)
            ddeta = du[n][0]  # d_t^2 eta = d_t u3 at the top
            E += weight * (
                bulk_hs_sq(u, kappa, 2)
                + bulk_hs_sq(du, kappa, 0)
                + bulk_hs_sq([p], kappa, 1)
                + bracket**4.5 * abs(eta) ** 2
                + bracket**2 * abs(deta) ** 2
            )
            Dd += weight * (
                bulk_hs_sq(u, kappa, 3)
                + bulk_hs_sq(du, kappa, 1)
                + bulk_hs_sq([p], kappa, 2)
                + bracket**5.5 * abs(eta) ** 2
                + bracket**2.5 * abs(deta) ** 2
                + bracket**0.5 * abs(ddeta) ** 2
            )
        return E, Dd

    def _geometric_pair(self, state: FlattenedState):
        """E_geo and D_geo: J-weighted, A-symmetrized, full surface energy.

        Each derivative copy carries the square root of its multiplicity,
        so every sum over copies is plain.  The copies and their horizontal
        gradients are stacked as half spectra and pushed through one real
        inverse transform; the surface quadratic forms reuse one Hessian
        evaluation of the density along the jet of eta.
        """
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        nc = dom.ncomp
        grid = dom.horizontal
        eta = state.eta()
        gc = geo.geometric_coefficients(eta, dom)
        alphas = self._alpha_set()
        na = len(alphas)

        # per-mode content of all copies, scattered to (*grid, na, nc, M_v) and (*grid, na)
        vel, surf = {}, {}
        for kt, x in state.modes.items():
            u, du, p, eta_h, deta = self._mode_profiles(kt, x)
            kappa = 2.0 * np.pi * np.asarray(kt, dtype=float)
            factors = [np.sqrt(w) * np.prod((1j * kappa) ** np.asarray(ah, dtype=float))
                       for _, ah, w in alphas]
            vel[kt] = np.array([m * np.asarray(du if at else u)
                                for m, (at, _, _) in zip(factors, alphas)])
            surf[kt] = np.array([m * (deta if at else eta_h)
                                 for m, (at, _, _) in zip(factors, alphas)])
        zhat = np.moveaxis(hermitian_scatter(grid, surf, (na,)), -1, 0)

        # spec[0] holds the copies, spec[1 + i] their d_i, as half spectra
        # along the last horizontal axis: (1+n, na, nc, *half, M_v).  Coefficients
        # multiply exp(2 pi i k.x) as they are, so the inverse is unscaled.
        half = grid.shape[:-1] + (grid.N // 2 + 1,)
        chat = hermitian_scatter(grid, vel, (na, nc, M_v))[tuple(slice(h) for h in half)]
        spec = np.empty((1 + n, na, nc) + half + (M_v,), dtype=complex)
        spec[0] = np.moveaxis(chat, tuple(range(n)), tuple(range(2, 2 + n)))
        mult = derivative_multiplier(grid)
        for i in range(n):
            shape = [1] * (2 + n + 1)
            shape[2 + i] = half[i]
            np.multiply(spec[0], mult[:half[i]].reshape(shape), out=spec[1 + i])
        fields = np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(3, 3 + n)), norm="forward")
        copies = fields[0]
        E, Dd = geo.geometric_forms(gc, copies, [*fields[1:], copies @ dom.D3.T])

        # surface energies: W(eta) for the identity copy, Q_eta for the rest
        E += geo.surface_potential(self.density, self.g, eta)
        p_j, M_j, fine = se._jet_fields(eta)
        hess = self.density.hess(p_j, M_j)
        for a, (at, ah, _) in enumerate(alphas):
            if at == 0 and not any(ah):
                continue
            zeta = SpectralField(grid, zhat[a])
            gp, gM, _ = se._jet_fields(zeta, fine)
            E += 0.5 * float(np.mean(se.hessian_form(hess, gp, gM)))
            E += 0.5 * self.g * float(np.mean(zeta.samples() ** 2))
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
        """
        dt = settings.dt
        trace = EnergyTrace()
        nsteps = int(round(settings.horizon / dt))
        trace.append(state.t, self.functionals(state), state.mass())
        current = state
        if settings.record_ed:
            E_prev, D_prev = self._equilibrium_pair(current)
        for step_i in range(1, nsteps + 1):
            new = self.step(current, dt, settings.scheme)
            if settings.record_ed:
                E_new, D_new = self._equilibrium_pair(new)
                D_half = 0.5 * (D_prev + D_new)
                trace.ed_t.append(current.t + 0.5 * dt)
                trace.ed_residual.append((E_new - E_prev) / dt + D_half)
                trace.ed_dissipation.append(D_half)
                E_prev, D_prev = E_new, D_new
            current = new
            if step_i % settings.output_interval == 0 or step_i == nsteps:
                trace.append(current.t, self.functionals(current), current.mass())
        return trace, current
