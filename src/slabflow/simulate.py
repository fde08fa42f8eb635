"""Time integration of the linearized slab flow and its energy bookkeeping.

The linearized system diagonalizes over horizontal wavevectors, so a state
is one stack of per-mode profile vectors (one conjugacy representative per
excited wavevector; the -k content is implied by reality).  Steps are
implicit (Crank-Nicolson by default, backward Euler optionally): each mode
set caches the stack of its per-mode one-step propagators, real in the
frame u_h -> -i u_h, and one real batched product advances every mode; the
functionals are batched over the state's stack.

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
from functools import cached_property
from itertools import product

import numpy as np

from . import geometry as geo
from . import surface_energy as se
from .densities import EnergyDensity
from .fourier import (PAIR_FRACTION, SpectralField, band_wavevector, derivative_multiplier,
                      hermitian_scatter, mode_samples)
from .geometry import BulkField, FlattenedDomain
# perfbench/tracing.py wraps assemble_mode and solve_spectrum on this module.
from .stability import (ModeLayout, ModeOperator, NumericError, Spectrum, _scipy_linalg,
                        assemble_mode, mode_sigma, solve_spectrum, time_derivative_trace)

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


class FlattenedState:
    """Bulk velocity and pressure plus surface elevation on the fixed strip.

    The state is one complex stack X of mode vectors, shape (modes, dim), row i
    holding the mode of wavevector keys[i]; `modes` is the {k: row} view of X,
    whose rows write through to the stack.
    """

    def __init__(self, dom: FlattenedDomain, modes: dict, t: float = 0.0):
        self.dom, self.keys, self.t = dom, tuple(modes), t
        X = np.array(list(modes.values()), dtype=complex)
        self.X = X.reshape(len(self.keys), self.layout.dim)

    def _like(self, X: np.ndarray, t: float) -> "FlattenedState":
        """The state of the same wavevectors with stack X at time t, built without a dict."""
        out = object.__new__(FlattenedState)
        out.dom, out.keys, out.X, out.t = self.dom, self.keys, X, t
        return out

    def copy(self) -> "FlattenedState":
        return self._like(self.X.copy(), self.t)

    @cached_property
    def modes(self) -> dict[tuple[int, ...], np.ndarray]:
        return dict(zip(self.keys, self.X))

    @property
    def layout(self) -> ModeLayout:
        return ModeLayout(self.dom.n, self.dom.M_v)

    def stack(self) -> tuple[tuple, np.ndarray]:
        """The wavevectors and the stack of their mode vectors, not copied."""
        return self.keys, self.X

    def _velocity_stack(self):
        """Velocity blocks (modes, n+1, M_v) and kappa = 2 pi k (modes, n) of the stack."""
        u, _, _ = self.layout.blocks(self.X)
        return u, 2.0 * np.pi * np.array(self.keys, dtype=float).reshape(len(self.keys), self.dom.n)

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
        x = self.modes.get((0,) * self.dom.n)
        return 0.0 if x is None else float(x[self.layout.eta].real)

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
        for name, value in {"t": t, **rec, "mass": mass}.items():
            getattr(self, name).append(value)

    def ed_relative_residual(self) -> float:
        """max |r_n| normalized by the largest midpoint dissipation."""
        if not self.ed_residual:
            raise ValueError("no ED residual series: a run with record_ed=False records none")
        return float(max(abs(r) for r in self.ed_residual) / (max(self.ed_dissipation) or 1.0))

    def to_csv(self) -> str:
        """CSV with 17 significant digits, LF endings."""
        header = "t,E_eq,D_eq,E_imp,D_imp,E_geo,mass"
        rows = zip(*(getattr(self, name) for name in header.split(",")))
        return "\n".join([header] + [",".join(format(v, ".17g") for v in row)
                                     for row in rows]) + "\n"


class FitError(RuntimeError):
    """Decay-rate fit is not applicable (too few samples or non-positive energy)."""


def measure_decay_rate(trace: EnergyTrace):
    """Log-linear least squares of E_eq over the second half of the trace.

    Returns (rate, r_squared, valid); valid requires R^2 >= 0.999.
    """
    t = np.asarray(trace.t, dtype=float)
    E = np.asarray(trace.E_eq, dtype=float)
    if t.size < 10:
        raise FitError("need at least 10 samples")
    start = t.size // 2
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


# The implicit schemes, by the weight theta of L on the new time level.
_THETA = {"crank-nicolson": 0.5, "backward-euler": 1.0}


def _check_scheme(scheme: str):
    if scheme not in _THETA:
        raise ValueError(f"scheme: unknown scheme {scheme!r}; choose from {sorted(_THETA)}")


@dataclass(frozen=True)
class SimulationSettings:
    """A run's time stepping, also parsed from the config's `time` section (all but record_ed)."""

    dt: float = 1e-3
    horizon: float = 5.0
    output_interval: int = 10
    scheme: str = "crank-nicolson"
    record_ed: bool = True

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt: must be positive and finite")
        if not self.dt <= self.horizon < np.inf:
            raise ValueError("horizon: must be finite and at least dt")
        if self.output_interval < 1:
            raise ValueError("output_interval: must be >= 1")
        _check_scheme(self.scheme)


@dataclass(frozen=True)
class _ModeSet:
    """Per-mode constants of one mode set, in the order of its stack, and its propagators."""

    kappa: np.ndarray   # 2 pi k, (modes, n)
    k2: np.ndarray      # |kappa|^2
    sigma: np.ndarray   # sigma(k)
    weight: np.ndarray  # 1 at k = 0, 2 for a conjugate pair
    mean: np.ndarray    # k = 0
    hs: np.ndarray      # (4, 4, modes), see Simulator._mode_set
    # The equilibrium pair, see Simulator._equilibrium_factors: each mode's rotation of
    # u_h onto (kappa_hat, its normal), its slot in the (class, rank) layout of the
    # factors, and the weights of the sigma terms on |eta|^2 and |u_3(top)|^2.
    rotation: np.ndarray  # (modes, n, n)
    slot: np.ndarray      # (modes,)
    width: int            # most modes of one class
    factors: tuple        # longitudinal and, for n = 2, transverse [R_E^T | R_D^T]
    sigma_eta: np.ndarray
    sigma_top: np.ndarray
    propagators: dict = field(default_factory=dict)  # (dt, scheme) -> Simulator._propagator


class Simulator:
    """Owner of one physical configuration (density, gravity, domain)."""

    def __init__(self, density: EnergyDensity, g: float, dom: FlattenedDomain):
        self.density = density
        self.g = float(g)
        self.dom = dom
        self.layout = ModeLayout(dom.n, dom.M_v)
        # The per-mode stores: the mode sets, and the filtered spectrum of each
        # lattice-symmetry class solved so far (`_class_spectrum`), about 68 KB a class
        # at M_v = 24.  `op` and `sigma` rebuild on every call, since a cached
        # operator would keep two complex dim x dim matrices per mode alive.
        self._mode_sets: dict[tuple, _ModeSet] = {}
        self._classes: dict[tuple, Spectrum] = {}
        # The real frame S: -i on the horizontal velocity blocks, 1 elsewhere.  Every
        # complex entry of a mode operator is an i kappa_j coupling a horizontal
        # velocity to u_3 or p, so S A S^-1 is real; S and S^-1 are exact in floats.
        self._phase = np.ones(self.layout.dim, dtype=complex)
        self._phase[:self.layout.u(dom.n).start] = -1j

    # -- operators -----------------------------------------------------------

    def sigma(self, k) -> float:
        return mode_sigma(self.density, self.g, np.atleast_1d(k), self.dom.n)

    def op(self, k) -> ModeOperator:
        return assemble_mode(np.atleast_1d(k), self.dom.b, self.sigma(k), self.dom.M_v)

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

    def _class_spectrum(self, kt: tuple) -> Spectrum:
        """The filtered spectrum of the lattice-symmetry class of the canonical k, solved
        once per class at its octant member kc = (max |k_j|, min |k_j|) with sigma(k)."""
        band_wavevector(self.dom.horizontal, kt)
        kc, sigma = tuple(sorted(map(abs, kt), reverse=True)), self.sigma(kt)
        if (kc, sigma) not in self._classes:
            self._classes[kc, sigma] = solve_spectrum(assemble_mode(kc, self.dom.b, sigma,
                                                                    self.dom.M_v))
        return self._classes[kc, sigma]

    def eigenmode_data(self, k, amplitude: float, index: int = 0) -> FlattenedState:
        """Seed the index-th slowest eigenvector of the mode operator at k.

        One eigensolve serves each lattice-symmetry class (`_class_spectrum`).  The
        operator at k is Q L(kc) Q^T, Q swapping and negating horizontal velocity
        blocks, since kappa enters only as +-2 pi k_j: entry for entry, except where
        np.dot may round |kappa|^2 of a swapped member one ulp apart, as at (1, +-3).
        So the seed at k is Q times the seed at kc, as accurate an eigenvector as a
        direct solve's.  The resolved count and the pair order are those of the class
        solve.  Raises ValueError unless 0 <= index < that count.
        """
        kt, _ = _canonical_mode(k, self.dom.n)
        V = self._class_spectrum(kt).eigenvectors
        if not 0 <= index < V.shape[1]:
            raise ValueError(f"eigenmode index {index} out of range: "
                             f"{V.shape[1]} eigenpairs resolved at k={kt}")
        v = V[:, index].copy()
        scale = np.max(np.abs(v))
        v *= amplitude / scale
        u, _, _ = self.layout.blocks(v)  # the seed at k is Q times the seed at kc
        if abs(kt[0]) < abs(kt[-1]):
            u[:2] = u[1::-1].copy()
        np.negative(u[:self.dom.n], out=u[:self.dom.n], where=np.array(kt)[:, None] < 0)
        if all(c == 0 for c in kt):
            v = v.real.astype(complex)
        return FlattenedState(self.dom, {kt: v}, 0.0)

    def identity_defects(self, k) -> tuple[np.ndarray, np.ndarray]:
        """The class solve's eigenvalues at k and the identity defect of each eigenpair.

        An eigenpair (lambda, v) decays as exp(-lambda t), so the energy identity
        d/dt E_eq = -D_eq reads 2 Re lambda E_eq(v) = D_eq(v); the defect is
        |2 Re lambda E_eq(v) - D_eq(v)| / D_eq(v), with E_eq and D_eq taken by
        `_equilibrium_pair` on the seed of each pair (`eigenmode_data`).
        """
        kt, _ = _canonical_mode(k, self.dom.n)
        lam = self._class_spectrum(kt).eigenvalues
        E, D = np.array([self._equilibrium_pair(self.eigenmode_data(kt, 1.0, i))
                         for i in range(len(lam))]).T
        return lam, np.abs(2.0 * lam.real * E - D) / D

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
            A = (D2 - k2 * np.eye(M_v)).astype(complex)
            rhs = np.zeros(M_v, dtype=complex)
            A[0, :] = 0.0
            A[0, 0] = 1.0
            rhs[0] = 2.0 * (D @ u3)[0] + self.sigma(kt) * x[lay.eta]
            A[-1, :] = D[-1, :]
            rhs[-1] = (D2 @ u3)[-1] - k2 * u3[-1]
            p = _scipy_linalg().solve(A, rhs)
            resid = np.max(np.abs(A @ p - rhs))
            if resid > 1e-10 * max(1.0, np.max(np.abs(rhs))):
                raise NumericError(f"pressure solve residual {resid:.2e} at k={kt}")
            x[lay.p] = p
        return out

    # -- stepping --------------------------------------------------------------

    def _propagator(self, keys: tuple, dt: float, scheme: str) -> np.ndarray:
        """One-step propagators of a mode set in the real frame, stacked (modes, dim, dim):
        S A1^-1 A2 S^-1, factored from the real S A1 S^-1 and S A2 S^-1."""
        _check_scheme(scheme)
        c = self._mode_set(keys)
        if (dt, scheme) not in c.propagators:
            if dt <= 0:
                raise ValueError("dt must be positive")
            linalg = _scipy_linalg()
            theta = _THETA[scheme]
            s = self._phase
            P = np.empty((len(keys), self.layout.dim, self.layout.dim))
            for i, kt in enumerate(keys):
                op = assemble_mode(kt, self.dom.b, c.sigma[i], self.dom.M_v)
                A1 = op.B / dt + theta * op.L
                A2 = op.B / dt - (1.0 - theta) * op.L
                A2[op.B.diagonal() == 0.0] = 0.0  # constraint rows hold at the new time exactly
                A1, A2 = (s[:, None] * A * s.conj() for A in (A1, A2))
                if np.any(A1.imag) or np.any(A2.imag):
                    raise NumericError(f"stepper matrices at k={kt} are not real in the frame")
                P[i] = linalg.lu_solve(linalg.lu_factor(A1.real), A2.real)
            c.propagators[dt, scheme] = P
        return c.propagators[dt, scheme]

    def step(self, state: FlattenedState, dt: float,
             scheme: str = "crank-nicolson") -> FlattenedState:
        """One implicit step, as a new state: one real batched product on the real
        and imaginary parts of S X, a small dgemm per mode that OpenBLAS keeps on
        the calling thread.  The k = 0 surface entry is carried unchanged.  A scheme
        other than "crank-nicolson" or "backward-euler" raises ValueError."""
        keys, X = state.stack()
        s = self._phase
        Y = (X * s).view(float).reshape(X.shape + (2,))
        Y = (self._propagator(keys, dt, scheme) @ Y).view(complex)[..., 0] * s.conj()
        mean, eta = self._mode_set(keys).mean, self.layout.eta
        Y[mean, eta] = X[mean, eta]  # mass: d_t eta_hat(0) = 0
        Y[mean] = Y[mean].real
        return state._like(Y, state.t + dt)

    # -- functionals -------------------------------------------------------------

    def _mode_set(self, keys: tuple) -> "_ModeSet":
        """Per-mode constants of the wavevectors `keys`, cached per mode set."""
        if keys not in self._mode_sets:
            n = self.dom.n
            k = np.array(keys, dtype=int).reshape(len(keys), n)
            kappa = 2.0 * np.pi * k
            k2 = np.sum(kappa**2, axis=1)
            mean = ~np.any(kappa, axis=1)
            sigma = np.array([self.sigma(kt) for kt in keys])
            weight = np.where(mean, 1.0, 2.0)
            # hs[s, d]: weight of the d-th vertical derivative in the H^s norm, the
            # sum of prod |kappa_i|^(2 m_i) over horizontal orders with |m| <= s - d
            hs = np.zeros((4, 4, len(keys)))
            for multi in product(range(4), repeat=n):
                h = sum(multi)
                if h <= 3:
                    term = np.prod(np.abs(kappa) ** (2.0 * np.asarray(multi)), axis=1)
                    for order in range(h, 4):
                        hs[order, :order - h + 1] += term
            # the equilibrium pair: modes of one integer |k|^2 share a class, and
            # mode i sits at rank[i] among its class in the factors' layout
            q, cls = np.unique(np.sum(k**2, axis=1), return_inverse=True)
            rank = np.array([np.sum(cls[:i] == c) for i, c in enumerate(cls)], dtype=int)
            width = int(rank.max(initial=-1)) + 1
            kh = kappa / np.sqrt(np.where(mean, 1.0, k2))[:, None]
            kh[mean, 0] = 1.0  # the identity rotation at k = 0
            rotation = kh[:, None] if n == 1 else np.stack([kh, kh[:, ::-1] * [-1, 1]], axis=1)
            self._mode_sets[keys] = _ModeSet(
                kappa=kappa, k2=k2, sigma=sigma, weight=weight, mean=mean, hs=hs,
                rotation=rotation, slot=cls * width + rank, width=width,
                factors=self._equilibrium_factors(q),
                sigma_eta=0.5 * weight * sigma * (1.0 + k2 + k2**2),
                sigma_top=np.where(mean, 0.0, 0.5 * weight * sigma))
        return self._mode_sets[keys]

    def _equilibrium_factors(self, q: np.ndarray) -> tuple:
        """Real triangular factors of E_eq and D_eq without their sigma terms, one per
        distinct integer |k|^2 in q: a stack (classes, cols, 2 cols) of [R_E^T | R_D^T]
        for the longitudinal block (u_par, u_3, p) and, for n = 2, one for the
        transverse block u_perp.

        In the real frame y = S x with u_h rotated onto (kappa_hat, its normal), both
        forms depend on k only through |k|^2 and the two blocks decouple, so they are
        built at kappa = (|kappa|, 0).  Each form is the sum of |row . y|^2 over the
        rows sqrt(w f w3 / 2) times the velocities (E_eq) or their symmetric gradient
        (D_eq) of the state (f = 1 + |kappa|^2 + |kappa|^4) and of its time derivative,
        the momentum trace (f = 1).  Every row is real or imaginary in this frame
        (checked), so the sum of each row's real and imaginary parts, one of them zero,
        is a real map A with the same form, and Householder QR gives R with
        R^T R = A^T A without forming A^T A, which would square its conditioning.
        eta enters neither factor.
        """
        linalg = _scipy_linalg()
        dom, lay = self.dom, self.layout
        n, D = dom.n, dom.D3
        blocks = [np.r_[lay.u(0), lay.u(n).start:lay.p.stop]] + [np.r_[lay.u(1)]] * (n == 2)
        factors = [np.empty((len(q), c.size, 2 * c.size)) for c in blocks]
        basis = np.diag(self._phase.conj())  # x = S^-1 y of each unit vector y
        for i, qi in enumerate(q):
            kappa = np.zeros((lay.dim, n))
            kappa[:, 0] = 2.0 * np.pi * np.sqrt(qi)
            k2 = kappa[0, 0] ** 2
            # velocities of the state and of its time derivative, (copy, j, node, column)
            X = np.stack([basis, time_derivative_trace(basis, kappa, D)]).swapaxes(1, 2)
            u = X[:, :lay.p.start].reshape(2, n + 1, dom.M_v, lay.dim)
            # G[:, i, j] = d_i u_j: i < n horizontal, i = n vertical
            G = np.concatenate([1j * kappa[0, :, None, None, None] * u[:, None],
                                (D @ u)[:, None]], axis=1)
            # sqrt(w f w3 / 2) by (copy, node)
            scale = np.sqrt(0.5 * (2.0 if qi else 1.0) * dom.w3
                            * np.array([1.0 + k2 + k2**2, 1.0])[:, None])[:, None, :, None]
            for f, rows in enumerate((scale * u, scale[:, None] * (G + np.swapaxes(G, 1, 2)))):
                if np.any(rows.real * rows.imag):
                    raise NumericError(f"equilibrium forms at |k|^2={qi} are not real in the frame")
                A = (rows.real + rows.imag).reshape(-1, lay.dim)
                for b, cols in enumerate(blocks):
                    # Householder QR of the rows in their natural order: sorting them by
                    # norm or dropping the zero ones left D_eq 10-100 times less accurate
                    R = linalg.lapack.dgeqrf(A[:, cols])[0]
                    factors[b][i, :, f * cols.size:(f + 1) * cols.size] = np.triu(R[:cols.size]).T
        return tuple(factors)

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

    def _profiles(self, state: FlattenedState):
        """The constants of the state's mode set, and the blocks of its stack and
        of its time derivative: the evolution equations traced on the state (the
        construction used for initial data), with the surface average frozen.
        Velocities are (modes, n+1, M_v), pressures (modes, M_v)."""
        keys, X = state.stack()
        c = self._mode_set(keys)
        u, p, eta = self.layout.blocks(X)
        du, _, deta = self.layout.blocks(time_derivative_trace(X, c.kappa, self.dom.D3))
        return c, u, du, p, eta, np.where(c.mean, 0.0, deta)

    def _equilibrium_pair(self, state: FlattenedState):
        """E_eq and D_eq: parabolic-order-two sums of the equilibrium forms.

        The horizontal-derivative copies of one mode are scalar multiples of
        it, so the sum over spatial multi-indices collapses to the factor
        S_k = 1 + |kappa|^2 + |kappa|^4, leaving the time-derivative copy as
        the only extra evaluation.  Both forms are sums of squares of the mode
        set's factors (`_equilibrium_factors`) applied to the rotated real-frame
        blocks of the stack, gathered by class; the sigma terms of eta and of
        d_t eta = u_3(top) are added per mode.
        """
        keys, X = state.stack()
        c = self._mode_set(keys)
        n = self.dom.n
        u, p, eta = self.layout.blocks(X)
        uh = -1j * (c.rotation @ u[:, :n])  # S u_h along kappa_hat and its normal
        blocks = (np.concatenate([uh[:, :1], u[:, n:], p[:, None]], axis=1), uh[:, 1:])
        E = c.sigma_eta @ np.abs(eta) ** 2 + c.sigma_top @ np.abs(u[:, n, 0]) ** 2
        Dd = 0.0
        for F, z in zip(c.factors, blocks):
            classes, cols = F.shape[:2]
            z = z.reshape(len(keys), cols)
            W = np.zeros((classes * c.width, 2, cols))
            W[c.slot] = np.stack([z.real, z.imag], axis=1)
            Y = W.reshape(classes, 2 * c.width, cols) @ F
            E += np.sum(Y[..., :cols] ** 2)
            Dd += np.sum(Y[..., cols:] ** 2)
        return float(E), float(Dd)

    def _improved_pair(self, state: FlattenedState):
        """E_imp and D_imp: the Sobolev-norm versions."""
        n, w3, D = self.dom.n, self.dom.w3, self.dom.D3
        c, u, du, p, eta, deta = self._profiles(state)

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
        so every sum over copies is plain.  A state at n = 2 with few
        wavevectors, none on a Nyquist plane ((2P)^2 <= PAIR_FRACTION N^2 for
        P representatives), takes the bulk forms as exact sums over wavevector
        pairs (`geometry.pair_forms`), the copies entering through their
        factors; any other state, every one at n = 1, synthesizes the copies
        and their gradients on the grid, summed directly over the excited modes
        (`fourier.mode_samples`, the vertical derivative taken on the per-mode
        profiles first), for `geometry.geometric_forms`.  One jet of the
        stacked surface copies, copy 0 being eta, gives W(eta) and, from one
        Hessian evaluation of the density along the jet of eta, Q_eta of the
        other copies.
        """
        dom = self.dom
        n, M_v = dom.n, dom.M_v
        grid = dom.horizontal
        alphas = self._alpha_set()
        na = len(alphas)

        # content of all copies per mode: factors (modes, na) on the profiles of u or d_t u
        keys = state.keys
        c, u, du, _, eta_h, deta = self._profiles(state)
        factors = np.stack([np.sqrt(w) * np.prod((1j * c.kappa) ** np.asarray(ah, dtype=float),
                                                 axis=1) for _, ah, w in alphas], axis=1)
        timed = np.array([at == 1 for at, _, _ in alphas])
        surf = factors * np.where(timed, deta[:, None], eta_h[:, None])
        zhat = hermitian_scatter(grid, dict(zip(keys, surf)), (na,))
        copies = [SpectralField(grid, zhat[..., a]) for a in range(na)]  # copies[0] is eta
        gc = geo.geometric_coefficients(copies[0], dom)

        k = np.array(keys, dtype=int).reshape(len(keys), n)
        if (n == 2 and np.all(np.abs(k) < grid.N // 2)
                and (2 * len(keys)) ** 2 <= PAIR_FRACTION * grid.npoints):
            E, Dd = geo.pair_forms(gc, k, eta_h,
                                   [(factors[:, ~timed], u), (factors[:, timed], du)])
        else:
            # fields[0] holds the copies, fields[1 + i] their d_i: (2+n, na, nc, *grid, M_v)
            vel = factors[:, :, None, None] * np.where(timed[:, None, None], du[:, None],
                                                       u[:, None])
            mult = np.concatenate([np.ones((len(keys), 1)),
                                   derivative_multiplier(grid)[k % grid.N]], axis=1)
            amps = np.concatenate([mult[:, :, None, None, None] * vel[:, None],
                                   (vel @ dom.D3.T)[:, None]], axis=1)
            fields = mode_samples(grid, dict(zip(keys, amps)), amps.shape[1:-1], (M_v,))
            E, Dd = geo.geometric_forms(gc, fields[0], fields[1:])

        # surface energies from one jet of all copies, one transform per derivative:
        # W(eta) for copy 0 and Q_eta for the rest; int zeta^2 by Parseval
        gp, gM, _ = se._jet_fields(*copies)
        W = self.density.value(gp[0], gM[0])
        se.check_finite(self.density, W)
        E += float(np.mean(W)) + 0.5 * se.hessian_form_total(self.density.hess(gp[0], gM[0]),
                                                             gp[1:], gM[1:])
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
        """
        dt = settings.dt
        trace = EnergyTrace()
        nsteps = int(round(settings.horizon / dt))
        rec = self.functionals(state)
        trace.append(state.t, rec, state.mass())
        E_prev, D_prev = rec["E_eq"], rec["D_eq"]
        for step_i in range(1, nsteps + 1):
            t = state.t
            state = self.step(state, dt, settings.scheme)
            if step_i % settings.output_interval == 0 or step_i == nsteps:
                rec = self.functionals(state)
                trace.append(state.t, rec, state.mass())
                E_new, D_new = rec["E_eq"], rec["D_eq"]  # the record serves the ED series too
            elif settings.record_ed:
                E_new, D_new = self._equilibrium_pair(state)
            if settings.record_ed:
                D_half = 0.5 * (D_prev + D_new)
                trace.ed_t.append(t + 0.5 * dt)
                trace.ed_residual.append((E_new - E_prev) / dt + D_half)
                trace.ed_dissipation.append(D_half)
                E_prev, D_prev = E_new, D_new
        return trace, state
