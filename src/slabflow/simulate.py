"""Time integration of the linearized slab flow and its energy bookkeeping.

The linearized system diagonalizes over horizontal wavevectors, so a state
is one stack of per-mode profile vectors (one conjugacy representative per
excited wavevector; the -k content is implied by reality).  Steps are
implicit (Crank-Nicolson by default, backward Euler optionally): each mode
set caches one one-step propagator per lattice-symmetry class of its modes,
real in the frame u_h -> -i u_h, and a stepped state holds its modes in
class slots, so one real batched product advances every mode.  The
equilibrium and improved pairs are quadratic forms of each mode, applied to
the slots through real triangular factors built once per class; the
geometric pair is batched over the state's stack.

Functionals follow three conventions:
  * equilibrium (E_eq, D_eq): quadratic forms of the unknowns and their
    derivatives up to parabolic order two (identity, d_t, horizontal
    first and second derivatives);
  * improved (E_imp, D_imp): Sobolev norms of the unknowns, the bulk terms
    summing every derivative multi-index up to the order once;
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
    whose rows write through to the stack.  A state returned by `Simulator.step`
    holds its modes in the class slots of the mode set that stepped it instead
    (`_ModeSet.slots`), and builds X from them when X, `modes` or `stack()` is
    first read; that read drops the slots, so a write through X or `modes` is the
    state from then on.  `step` and the equilibrium and improved pairs read the slots
    without that read; the geometric pair and the diagnostics read X.
    """

    def __init__(self, dom: FlattenedDomain, modes: dict, t: float = 0.0):
        self.dom, self.keys, self.t = dom, tuple(modes), t
        X = np.array(list(modes.values()), dtype=complex)
        self._X, self._slots = X.reshape(len(self.keys), self.layout.dim), None

    def _like(self, X, t: float, slots: tuple | None = None) -> "FlattenedState":
        """The state of the same wavevectors with stack X, or with the slots
        (mode set, Z) in its place, at time t, built without a dict."""
        out = object.__new__(FlattenedState)
        out.dom, out.keys, out.t, out._X, out._slots = self.dom, self.keys, t, X, slots
        return out

    @property
    def X(self) -> np.ndarray:
        if self._slots is not None:
            c, Z = self._slots
            self._X, self._slots = c.unslot(Z), None
        return self._X

    def _class_slots(self, c: "_ModeSet") -> np.ndarray:
        """The state in the class slots of mode set c: its own if c made them, else
        gathered from X for this call."""
        if self._slots is not None and self._slots[0] is c:
            return self._slots[1]
        return c.slots(self.X)

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
        """max |r_n| normalized by the largest half-step dissipation D_half, the
        trapezoid mean (D_eq(t_n) + D_eq(t_n+1)) / 2 of the node values."""
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


def _octant_member(kt: tuple) -> tuple:
    """kc = (max |k_j|, min |k_j|), the member of k's lattice-symmetry class in the first
    octant: a signed permutation Q of the horizontal velocity blocks maps kc's mode
    operator onto k's (`Simulator.eigenmode_data`)."""
    return tuple(sorted(map(abs, kt), reverse=True))


@dataclass(frozen=True)
class _ModeSet:
    """Per-mode constants of one mode set, in the order of its stack, its lattice-symmetry
    classes (kc, sigma) and their propagators and form factors."""

    kappa: np.ndarray   # 2 pi k, (modes, n)
    mean: np.ndarray    # k = 0
    # The class slots Z (classes, 2 width, dim), see Simulator._mode_set: the real and
    # imaginary rows of y = S Q^T x for each member x of a class, in kc's real frame.
    classes: tuple        # (kc, sigma) of each class
    width: int            # most members of one class
    place: np.ndarray     # (modes, dim, 2): where each float of X sits in the flat slots
    sign: np.ndarray      # (modes, dim, 2): +-1, the sign it takes there
    mean_eta: np.ndarray  # slots of Re eta at k = 0, carried by a step
    mean_imag: np.ndarray  # slots of Im x at k = 0, zeroed by a step
    # The two form pairs (E, D) on the slots, u_h at kc turned by each class's rotation
    # onto (kappa_hat, its normal): the factors [R_E^T | R_D^T] (classes, cols, 2 cols) of
    # each block (Simulator._form_factors), and per form the weights (2, classes, 2 width)
    # of eta^2 and u_3(top)^2 in each slot row, or None.
    rotation: np.ndarray  # (classes, n, n)
    equilibrium: tuple    # (factors, (E weights, None))
    improved: tuple       # (factors, (E weights, D weights))
    propagators: dict = field(default_factory=dict)  # (dt, scheme) -> Simulator._propagator

    def slots(self, X: np.ndarray) -> np.ndarray:
        """The class slots of the stack X, zero in empty slots."""
        Z = np.zeros((len(self.classes), 2 * self.width, X.shape[-1]))
        Z.reshape(-1)[self.place] = self.sign * np.ascontiguousarray(X).view(float).reshape(
            self.sign.shape)
        return Z

    def unslot(self, Z: np.ndarray) -> np.ndarray:
        """The stack X of the class slots Z: the exact inverse of `slots`."""
        return (self.sign * Z.reshape(-1)[self.place]).view(complex)[..., 0]

    @property
    def factors(self) -> tuple:
        """The equilibrium factors of each distinct integer |k|^2, in increasing order."""
        q = [sum(c * c for c in kc) for kc, _ in self.classes]
        return tuple(F[np.unique(q, return_index=True)[1]] for F in self.equilibrium[0])


class Simulator:
    """Owner of one physical configuration (density, gravity, domain)."""

    def __init__(self, density: EnergyDensity, g: float, dom: FlattenedDomain):
        self.density = density
        self.g = float(g)
        self.dom = dom
        self.layout = ModeLayout(dom.n, dom.M_v)
        # The per-class stores: the mode sets, each with one real propagator per
        # lattice-symmetry class (kc, sigma) of its modes for each time step and scheme
        # (`_ModeSet`), and the filtered spectrum of each class solved so far
        # (`_class_spectrum`), about 68 KB a class at M_v = 24.  `op` and `sigma`
        # rebuild on every call, since a cached operator would keep two complex
        # dim x dim matrices per mode alive.
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
        kc, sigma = _octant_member(kt), self.sigma(kt)
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
        """One-step propagators of a mode set's classes in the real frame, stacked
        transposed (classes, dim, dim) to act on slot rows: P^T for P = S A1^-1 A2 S^-1
        at each class's octant member kc, factored from the real S A1 S^-1 and S A2 S^-1.
        A member k = Q kc steps by Q P Q^T."""
        _check_scheme(scheme)
        c = self._mode_set(keys)
        if (dt, scheme) not in c.propagators:
            if dt <= 0:
                raise ValueError("dt must be positive")
            linalg = _scipy_linalg()
            theta = _THETA[scheme]
            s = self._phase
            P = np.empty((len(c.classes), self.layout.dim, self.layout.dim))
            for i, (kc, sigma) in enumerate(c.classes):
                op = assemble_mode(kc, self.dom.b, sigma, self.dom.M_v)
                A1 = op.B / dt + theta * op.L
                A2 = op.B / dt - (1.0 - theta) * op.L
                A2[op.B.diagonal() == 0.0] = 0.0  # constraint rows hold at the new time exactly
                A1, A2 = (s[:, None] * A * s.conj() for A in (A1, A2))
                if np.any(A1.imag) or np.any(A2.imag):
                    raise NumericError(f"stepper matrices at k={kc} are not real in the frame")
                P[i] = linalg.lu_solve(linalg.lu_factor(A1.real), A2.real).T
            c.propagators[dt, scheme] = P
        return c.propagators[dt, scheme]

    def step(self, state: FlattenedState, dt: float,
             scheme: str = "crank-nicolson") -> FlattenedState:
        """One implicit step, as a new state in class slots: one real batched product
        of the slots with their class propagators, a small dgemm per class that
        OpenBLAS keeps on the calling thread.  The k = 0 surface entry is carried
        unchanged and the k = 0 mode kept real.  A scheme other than
        "crank-nicolson" or "backward-euler" raises ValueError."""
        P = self._propagator(state.keys, dt, scheme)
        c = self._mode_set(state.keys)
        Z = state._class_slots(c)
        Y = Z @ P
        Y.reshape(-1)[c.mean_eta] = Z.reshape(-1)[c.mean_eta]  # mass: d_t eta_hat(0) = 0
        Y.reshape(-1)[c.mean_imag] = 0.0
        return state._like(None, state.t + dt, (c, Y))

    # -- functionals -------------------------------------------------------------

    def _mode_set(self, keys: tuple) -> "_ModeSet":
        """Per-mode constants of the wavevectors `keys` and their classes, cached per
        mode set.

        Mode k joins the class (kc, sigma(k)) of `_class_spectrum`, as member r of
        the class in order of appearance.  Its slot is rows 2r and 2r + 1 of the
        class in Z (classes, 2 width, dim), which hold the real and imaginary parts
        of y = S Q^T x, where Q maps kc to k (`eigenmode_data`).  S and Q only move
        floats and flip signs, so X -> slots -> X is exact.
        """
        if keys not in self._mode_sets:
            n, lay = self.dom.n, self.layout
            M, dim = lay.M_v, lay.dim
            k = np.array(keys, dtype=int).reshape(len(keys), n)
            kappa = 2.0 * np.pi * k
            k2 = np.sum(kappa**2, axis=1)
            mean = ~np.any(kappa, axis=1)
            sigma = np.array([self.sigma(kt) for kt in keys])
            weight = np.where(mean, 1.0, 2.0)
            # the classes, and the rank of each mode in its class
            keyed = [(_octant_member(kt), si) for kt, si in zip(keys, sigma)]
            index = {key: i for i, key in enumerate(dict.fromkeys(keyed))}
            classes = tuple(index)
            cls = np.array([index[key] for key in keyed], dtype=int)
            rank = np.array([np.sum(cls[:i] == c) for i, c in enumerate(cls)], dtype=int)
            width = int(rank.max(initial=-1)) + 1
            # X[i, j] goes to entry pos[i, j] of Q^T x, negated where k_b < 0 for its
            # horizontal block b, and -i of S moves its real part to the imaginary row
            j = np.arange(dim)
            horizontal = j < n * M
            swap = (n == 2) & (np.abs(k[:, 0]) < np.abs(k[:, -1]))
            pos = np.where(horizontal & swap[:, None], j + (1 - 2 * (j // M)) * M, j)
            negate = horizontal & (k[:, np.minimum(j // M, n - 1)] < 0)
            part = np.arange(2)
            row = part ^ horizontal[:, None]  # (dim, 2): the slot row of each part
            slot = cls * width + rank
            place = (2 * slot[:, None, None] + row) * dim + pos[:, :, None]
            sign = (np.where(negate, -1.0, 1.0)[:, :, None]
                    * np.where(horizontal[:, None] & (part == 0), -1.0, 1.0))
            # the rotation of u_h at kc onto (kappa_hat, its normal)
            kc = np.array([kt for kt, _ in classes], dtype=int).reshape(len(classes), n)
            kappa_c = 2.0 * np.pi * kc
            k2_c = np.sum(kappa_c**2, axis=1)
            kh = kappa_c / np.sqrt(np.where(k2_c == 0.0, 1.0, k2_c))[:, None]
            kh[k2_c == 0.0, 0] = 1.0  # the identity rotation at k = 0
            rotation = kh[:, None] if n == 1 else np.stack([kh, kh[:, ::-1] * [-1, 1]], axis=1)

            def per_row(*v):
                """Per-mode weights on both rows of their slot, zero in empty slots."""
                out = np.zeros((len(v), len(classes) * width, 2))
                out[:, slot] = np.array(v)[..., None]
                return out.reshape(len(v), len(classes), 2 * width)

            # the surface terms: sigma |eta|^2 and sigma |d_t eta|^2 in E_eq, and the
            # bracket powers of |eta|^2 and |d_t eta|^2 in E_imp and D_imp, d_t eta = u_3(top)
            top = np.where(mean, 0.0, weight)
            bracket = 1.0 + k2
            equilibrium, improved = self._form_factors(kc)
            self._mode_sets[keys] = _ModeSet(
                kappa=kappa, mean=mean, classes=classes, width=width, place=place, sign=sign,
                mean_eta=place[mean, lay.eta, 0], mean_imag=place[mean, :, 1].ravel(),
                rotation=rotation,
                equilibrium=(equilibrium, (per_row(0.5 * weight * sigma * (1.0 + k2 + k2**2),
                                                   0.5 * top * sigma), None)),
                improved=(improved, (per_row(weight * bracket**4.5, top * bracket**2),
                                     per_row(weight * bracket**5.5, top * bracket**2.5))))
        return self._mode_sets[keys]

    def _form_factors(self, kc: np.ndarray) -> tuple:
        """Real triangular factors of the equilibrium and the improved forms without their
        surface terms, for the classes of octant members kc (classes, n): per pair, a stack
        (classes, cols, 2 cols) of [R_E^T | R_D^T] for the longitudinal block (u_par, u_3,
        p) and, for n = 2, one for the transverse block u_perp.

        In the real frame y = S x with u_h rotated onto (kappa_hat, its normal) the blocks
        decouple, so the forms are built at kappa = (|kappa|, 0), each the sum of
        |row . y|^2 over rows on the state and on its time derivative, the momentum
        trace, with w = 1 at k = 0 and 2 for a conjugate pair:
          * E_eq, D_eq: sqrt(w f w3 / 2) times the velocities (E) or their symmetric
            gradient (D), f = 1 + |kappa|^2 + |kappa|^4 on the state and 1 on d_t u;
            classes of one integer |k|^2 share them.
          * E_imp, D_imp: sqrt(w h_(s-d) w3) D^d, d <= s, on u (s = 2 in E, 3 in D), d_t u
            (s = 0, 1) and p (s = 1, 2), h_r summing prod kappa_i^(2 m_i) at kc over the
            horizontal multi-indices |m| <= r; and for D_imp,
            sqrt(w (1 + |kappa|^2)^0.5) d_t u_3(top) = d_t^2 eta.
        Every row is real or imaginary in this frame (checked), so real plus imaginary
        part is a real map A with the same form, and Householder QR gives R with
        R^T R = A^T A without forming A^T A, which would square its conditioning.  eta
        enters no factor.
        """
        linalg = _scipy_linalg()
        dom, lay = self.dom, self.layout
        n, D, w3, M = dom.n, dom.D3, dom.w3, dom.M_v
        powers = [np.linalg.matrix_power(D, d) for d in range(4)]
        blocks = [np.r_[lay.u(0), lay.u(n).start:lay.p.stop]] + [np.r_[lay.u(1)]] * (n == 2)
        factors = [[np.empty((len(kc), c.size, 2 * c.size)) for c in blocks] for _ in range(2)]
        basis = np.diag(self._phase.conj())  # x = S^-1 y of each unit vector y
        _, first, qcls = np.unique(np.sum(kc**2, axis=1), return_index=True, return_inverse=True)
        m = np.array([m for m in product(range(4), repeat=n) if sum(m) <= 3]).reshape(-1, n)
        terms = np.prod((2.0 * np.pi * kc[:, None]) ** (2.0 * m), axis=-1)
        h = np.stack([terms[:, m.sum(axis=1) <= r].sum(axis=1) for r in range(4)], axis=1)

        def real(rows):
            """Real plus imaginary part of rows that are each real or imaginary, (-1, dim)."""
            if np.any(rows.real * rows.imag):
                raise NumericError(f"modal forms at k={tuple(kci)} are not real in the frame")
            return (rows.real + rows.imag).reshape(-1, lay.dim)

        for i, kci in enumerate(kc):
            qi = int(kci @ kci)
            kappa = np.zeros((lay.dim, n))
            kappa[:, 0] = 2.0 * np.pi * np.sqrt(qi)
            k2, w = kappa[0, 0] ** 2, 2.0 if qi else 1.0
            # velocities of the state and of its time derivative, (copy, j, node, column)
            X = np.stack([basis, time_derivative_trace(basis, kappa, D)]).swapaxes(1, 2)
            u = X[:, :lay.p.start].reshape(2, n + 1, M, lay.dim)
            forms = []
            if first[qcls[i]] == i:
                # G[:, i, j] = d_i u_j: i < n horizontal, i = n vertical
                G = np.concatenate([1j * kappa[0, :, None, None, None] * u[:, None],
                                    (D @ u)[:, None]], axis=1)
                # sqrt(w f w3 / 2) by (copy, node)
                scale = np.sqrt(0.5 * w * w3
                                * np.array([1.0 + k2 + k2**2, 1.0])[:, None])[:, None, :, None]
                forms = [(0, 0, real(scale * u)),
                         (0, 1, real(scale[:, None] * (G + np.swapaxes(G, 1, 2))))]
            # V[s]^T V[s] = sum over d <= s of w h_(s-d) (D^d)^T W3 D^d
            V = [np.triu(linalg.lapack.dgeqrf(np.concatenate(
                [np.sqrt(w * h[i, s - d] * w3)[:, None] * powers[d] for d in range(s + 1)]))[0][:M])
                for s in range(4)]
            # velocities and pressure of both copies, (copy, j, node, column)
            y = real(X).reshape(X.shape)[:, :lay.p.stop].reshape(2, n + 2, M, lay.dim)
            for f in range(2):
                rows = np.concatenate([V[2 + f] @ y[0, :-1], V[f] @ y[1, :-1],
                                       V[1 + f] @ y[0, -1:]])
                forms.append((1, f, np.concatenate([rows.reshape(-1, lay.dim)] + [
                    np.sqrt(w * (1.0 + k2) ** 0.5) * y[1, n, :1]] * f)))  # d_t^2 eta in D_imp
            for pair, f, A in forms:
                for b, cols in enumerate(blocks):
                    # Householder QR of the rows in their natural order: sorting them by
                    # norm or dropping the zero ones left D_eq 10-100 times less accurate
                    R = linalg.lapack.dgeqrf(A[:, cols])[0]
                    factors[pair][b][i, :, f * cols.size:(f + 1) * cols.size] = \
                        np.triu(R[:cols.size]).T
        return tuple(F[first[qcls]] for F in factors[0]), tuple(factors[1])

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

    def _form_pair(self, state: FlattenedState, name: str):
        """The form pair `name` of the state's mode set (`_ModeSet.equilibrium` or
        `.improved`) on its class slots: the sums of squares of each class's factors
        applied to its slots, u_h turned once per class by the rotation R_kc, plus the
        surface terms of eta and of d_t eta = u_3(top), added per slot row."""
        c = self._mode_set(state.keys)
        factors, surface = getattr(c, name)
        lay, n = self.layout, self.dom.n
        Z = state._class_slots(c)
        u = Z[..., :lay.p.start].reshape(Z.shape[:2] + (n + 1, lay.M_v))
        uh = c.rotation[:, None] @ u[:, :, :n]
        blocks = [np.concatenate([uh[:, :, 0], Z[..., lay.u(n).start:lay.p.stop]], axis=-1)]
        if n == 2:
            blocks.append(uh[:, :, 1])  # u_perp
        eta, top = Z[..., lay.eta] ** 2, u[:, :, n, 0] ** 2
        E, Dd = (0.0 if w is None else np.sum(w[0] * eta) + np.sum(w[1] * top)
                 for w in surface)
        for F, W in zip(factors, blocks):
            Y = (W @ F).reshape(-1, 2, F.shape[1])  # rows of R_E y and R_D y
            e, d = np.einsum("rfi,rfi->f", Y, Y)
            E, Dd = E + e, Dd + d
        return float(E), float(Dd)

    def _equilibrium_pair(self, state: FlattenedState):
        """E_eq and D_eq: parabolic-order-two sums of the equilibrium forms, the
        horizontal-derivative copies of a mode collapsing to the factor
        1 + |kappa|^2 + |kappa|^4 (`_form_factors`)."""
        return self._form_pair(state, "equilibrium")

    def _improved_pair(self, state: FlattenedState):
        """E_imp and D_imp: the Sobolev-norm versions (`_form_factors`)."""
        return self._form_pair(state, "improved")

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
        # the blocks of the stack and of its time derivative, the evolution equations
        # traced on the state with the surface average frozen: (modes, n+1, M_v) velocities
        keys, X = state.stack()
        c = self._mode_set(keys)
        u, _, eta_h = self.layout.blocks(X)
        du, _, deta = self.layout.blocks(time_derivative_trace(X, c.kappa, dom.D3))
        deta = np.where(c.mean, 0.0, deta)
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
