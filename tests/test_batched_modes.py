"""The batched stepper and functionals against per-mode references.

The references loop over the modes of a state one at a time: a LU
factorization of each mode's implicit matrix with one `lu_solve` per
step, the momentum/kinematic trace per velocity block, and per-mode sums
of the equilibrium and Sobolev-norm forms over explicit multi-indices.
The k = 0 mean flow is also checked against a 1-D Crank-Nicolson diffusion
that shares no code with the solver.
"""

import json
from itertools import product

import numpy as np
import pytest
import scipy.linalg

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow.cli import main
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain

N, M_V = 16, 12
SCHEMES = ["crank-nicolson", "backward-euler"]


# -- per-mode references -------------------------------------------------------


def ref_factors(op, dt, scheme):
    theta = 0.5 if scheme == "crank-nicolson" else 1.0
    A1 = op.B / dt + theta * op.L
    A2 = op.B / dt - (1.0 - theta) * op.L
    A2[np.abs(op.B).sum(axis=1) == 0.0, :] = 0.0
    if not any(op.k):
        # pressure gauge p(bottom) = 0 in place of the dependent bottom divergence row
        bottom = (op.n + 2) * op.M_v - 1
        A1[bottom, :] = 0.0
        A1[bottom, bottom] = 1.0
    return scipy.linalg.lu_factor(A1), A2


def ref_step(s, state, dt, scheme):
    out = {}
    for k, x in state.modes.items():
        lu, A2 = ref_factors(s.op(k), dt, scheme)
        xn = scipy.linalg.lu_solve(lu, A2 @ x)
        if not any(k):
            xn[(s.dom.n + 2) * s.dom.M_v] = x[(s.dom.n + 2) * s.dom.M_v]
            xn = xn.real.astype(complex)
        out[k] = xn
    return sim.FlattenedState(s.dom, out, state.t + dt)


def ref_profiles(s, k, x):
    """Velocity blocks, their time derivatives, pressure, eta and d_t eta of one mode."""
    n, M = s.dom.n, s.dom.M_v
    D = s.dom.D3
    kappa = 2.0 * np.pi * np.asarray(k, dtype=float)
    lap = D @ D - float(np.dot(kappa, kappa)) * np.eye(M)
    u = [x[j * M:(j + 1) * M] for j in range(n + 1)]
    p = x[(n + 1) * M:(n + 2) * M]
    du = [lap @ u[j] - 1j * kappa[j] * p for j in range(n)] + [lap @ u[n] - D @ p]
    deta = u[n][0] if any(k) else 0.0
    return kappa, u, du, p, x[(n + 2) * M], deta


def ref_equilibrium_pair(s, state):
    n, w3, D = s.dom.n, s.dom.w3, s.dom.D3
    E = Dd = 0.0
    for k, x in state.modes.items():
        weight = 2.0 if any(k) else 1.0
        kappa, u, du, _, eta, deta = ref_profiles(s, k, x)
        k2 = float(np.dot(kappa, kappa))
        for factor, uu, ee in ((1.0 + k2 + k2**2, u, eta), (1.0, du, deta)):
            E += weight * factor * 0.5 * (sum(float(w3 @ np.abs(c) ** 2) for c in uu)
                                          + s.sigma(k) * abs(ee) ** 2)
            G = np.array([[1j * kappa[i] * uu[j] for j in range(n + 1)] for i in range(n)]
                         + [[D @ uu[j] for j in range(n + 1)]])
            sym = G + np.swapaxes(G, 0, 1)
            Dd += weight * factor * 0.5 * float(w3 @ np.sum(np.abs(sym) ** 2, axis=(0, 1)))
    return E, Dd


def ref_improved_pair(s, state):
    n, w3, D = s.dom.n, s.dom.w3, s.dom.D3

    def hs_sq(profiles, kappa, order_max):
        total = 0.0
        for multi in product(range(order_max + 1), repeat=n + 1):
            if sum(multi) > order_max:
                continue
            hmult = np.prod(np.abs(kappa) ** np.asarray(multi[:n], dtype=float)) ** 2
            for c in profiles:
                d = c
                for _ in range(multi[n]):
                    d = D @ d
                total += hmult * float(w3 @ np.abs(d) ** 2)
        return total

    E = Dd = 0.0
    for k, x in state.modes.items():
        weight = 2.0 if any(k) else 1.0
        kappa, u, du, p, eta, deta = ref_profiles(s, k, x)
        br = 1.0 + float(np.dot(kappa, kappa))
        E += weight * (hs_sq(u, kappa, 2) + hs_sq(du, kappa, 0) + hs_sq([p], kappa, 1)
                       + br**4.5 * abs(eta) ** 2 + br**2 * abs(deta) ** 2)
        Dd += weight * (hs_sq(u, kappa, 3) + hs_sq(du, kappa, 1) + hs_sq([p], kappa, 2)
                        + br**5.5 * abs(eta) ** 2 + br**2.5 * abs(deta) ** 2
                        + br**0.5 * abs(du[n][0]) ** 2)
    return E, Dd


# -- states ------------------------------------------------------------------------


def simulator(n):
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    return sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)


def mixed_state(s, generic):
    """A k = 0 mean flow, a generic mode and a Nyquist mode (k_1 = N/2)."""
    n = s.dom.n
    nyquist = (N // 2,) + (1,) * (n - 1)
    seeds = [sim.ModeSeed((0,) * n, u=0.3),
             sim.ModeSeed(generic, eta=0.01 - 0.005j, u=0.4 + 0.2j),
             sim.ModeSeed(nyquist, eta=0.0015j, u=0.1)]
    return s.init_pressure(s.admissible_data(seeds))


def states():
    s2, s1 = simulator(2), simulator(1)
    return {"n2": (s2, mixed_state(s2, (1, -2))),
            "n1": (s1, mixed_state(s1, (3,))),
            "empty": (s2, sim.FlattenedState(s2.dom, {}, 0.0))}


STATES = states()


def assert_states_close(a, b, rtol):
    assert list(a.modes) == list(b.modes)
    assert a.t == b.t
    scale = max((np.max(np.abs(x)) for x in b.modes.values()), default=1.0)
    for k in b.modes:
        assert np.max(np.abs(a.modes[k] - b.modes[k])) <= rtol * scale


def assert_functionals_close(s, state, rtol):
    for got, ref in zip(s._equilibrium_pair(state) + s._improved_pair(state),
                        ref_equilibrium_pair(s, state) + ref_improved_pair(s, state)):
        assert abs(got - ref) <= rtol * abs(ref)


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", sorted(STATES))
def test_step_and_functionals_match_per_mode_reference(name, scheme):
    s, state = STATES[name]
    assert_functionals_close(s, state, 1e-13)
    got, ref = state, state
    for _ in range(20):
        got, ref = s.step(got, 1e-3, scheme), ref_step(s, ref, 1e-3, scheme)
    assert_states_close(got, ref, 1e-12)
    assert_functionals_close(s, got, 1e-13)


def test_empty_state():
    s, state = STATES["empty"]
    new = s.step(state, 1e-3)
    assert new.modes == {} and new.t == 1e-3
    assert s._equilibrium_pair(new) == (0.0, 0.0)
    assert s._improved_pair(new) == (0.0, 0.0)
    assert (new.divergence_residual(), new.bottom_slip(), new.tangential_stress_residual()) \
        == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_alternating_mode_sets(scheme):
    """Two states with different mode sets of one size on one simulator, stepped in turn."""
    s, a = STATES["n2"]
    b = s.init_pressure(s.admissible_data([sim.ModeSeed((2, 1), eta=0.003, u=0.05j),
                                           sim.ModeSeed((1, -2), eta=-0.002),
                                           sim.ModeSeed((0, 3), eta=0.001, u=0.02)]))
    assert len(b.modes) == len(a.modes) and list(b.modes) != list(a.modes)
    ra, rb = a, b
    for _ in range(5):
        a, b = s.step(a, 2e-3, scheme), s.step(b, 2e-3, scheme)
        ra, rb = ref_step(s, ra, 2e-3, scheme), ref_step(s, rb, 2e-3, scheme)
        assert_states_close(a, ra, 1e-12)
        assert_states_close(b, rb, 1e-12)
        assert_functionals_close(s, a, 1e-13)
        assert_functionals_close(s, b, 1e-13)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_equilibrium_factors_shared_by_equal_wavenumber(scheme):
    """Modes of one integer |k|^2 share one pair of factors; the pair still matches
    the per-mode reference on every step."""
    s = simulator(2)
    ks = [(1, 2), (2, 1), (2, -1), (1, -2), (3, 4), (4, 3), (5, 0), (0, 5), (8, 1)]
    seeds = [sim.ModeSeed((0, 0), u=0.2)] + [
        sim.ModeSeed(k, eta=0.004 * np.exp(0.7j * i) / (1 + i), u=(0.05 - 0.03j) / (1 + i))
        for i, k in enumerate(ks)]
    state = s.init_pressure(s.admissible_data(seeds))
    assert [len(F) for F in s._mode_set(state.keys).factors] == [4, 4]  # |k|^2 = 0, 5, 25, 65
    for _ in range(20):
        assert_functionals_close(s, state, 1e-13)
        state = s.step(state, 1e-3, scheme)
    assert_functionals_close(s, state, 1e-13)


def test_equilibrium_pair_is_rotation_invariant():
    """The images of a generic mode under the eight symmetries of the square lattice,
    u_h turned with k and conjugated onto the representative, keep E_eq and D_eq."""
    s = simulator(2)
    x = s.init_pressure(s.admissible_data([sim.ModeSeed((1, 2), eta=0.003 - 0.004j,
                                                        u=0.02 + 0.05j)])).modes[(1, 2)]
    E0, D0 = s._equilibrium_pair(sim.FlattenedState(s.dom, {(1, 2): x}))
    for swap, sx, sy in product((False, True), (1, -1), (1, -1)):
        Q = np.diag([sx, sy]) @ (np.eye(2)[::-1] if swap else np.eye(2))
        k = tuple(int(c) for c in Q @ (1, 2))
        y = x.copy()
        y[:2 * M_V] = (Q @ x[:2 * M_V].reshape(2, M_V)).ravel()
        rep, conj = sim._canonical_mode(k, 2)
        E, D = s._equilibrium_pair(sim.FlattenedState(s.dom, {rep: y.conj() if conj else y}))
        assert abs(E - E0) <= 1e-13 * E0 and abs(D - D0) <= 1e-13 * D0


def test_mode_operator_trace_is_one_row_of_the_batch():
    s, state = STATES["n2"]
    keys, X = state.stack()
    kappa = 2.0 * np.pi * np.array(keys, dtype=float)
    batch = st.time_derivative_trace(X, kappa, s.dom.D3)
    for i, k in enumerate(keys):
        scale = np.max(np.abs(batch[i]))
        assert np.max(np.abs(s.op(k).pde_time_derivative(X[i]) - batch[i])) <= 1e-14 * scale
        _, _, du, _, _, _ = ref_profiles(s, k, X[i])
        assert np.max(np.abs(batch[i][:(s.dom.n + 1) * M_V] - np.concatenate(du))) \
            <= 1e-12 * scale
        assert np.all(batch[i][(s.dom.n + 1) * M_V:-1] == 0.0)
        assert batch[i][-1] == X[i][s.dom.n * M_V]  # d_t eta = u3(top)


def diffusion_oracle(D, v, dt, steps):
    """Crank-Nicolson for v_t = v'' with v(bottom) = 0 and v'(top) = 0."""
    M = D.shape[0]
    D2 = D @ D
    A1 = np.eye(M) / dt - 0.5 * D2
    A2 = np.eye(M) / dt + 0.5 * D2
    A1[0], A2[0] = D[0], 0.0                 # top node: v' = 0
    A1[-1], A2[-1] = np.eye(M)[-1], 0.0      # bottom node: v = 0
    for _ in range(steps):
        v = np.linalg.solve(A1, A2 @ v)
    return v


def test_mean_flow_steps_as_one_dimensional_diffusion():
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, N), M_v=24)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    state = s.admissible_data([sim.ModeSeed((0, 0), u=0.3)])
    x0 = state.modes[(0, 0)].copy()
    for _ in range(50):
        state = s.step(state, 2e-3)
    x = state.modes[(0, 0)]
    v = diffusion_oracle(dom.D3, x0[:24].real, 2e-3, 50)
    for j in range(2):
        assert np.max(np.abs(x[j * 24:(j + 1) * 24] - v)) <= 1e-12 * np.max(np.abs(v))
    assert np.all(x[2 * 24:] == 0.0)  # u3, p and eta stay exactly zero


def test_cli_simulate_with_mean_flow(tmp_path):
    cfg = {"density": {"family": "combo", "alpha": -1.0, "beta": 0.042},
           "gravity": -1.0, "depth": 1.0,
           "grid": {"n": 2, "N": 16, "M_v": 24},
           "time": {"dt": 0.002, "horizon": 0.04, "output_interval": 5},
           "initial_data": {"modes": [{"k": [0, 0], "u": [0.3, 0]},
                                      {"k": [1, 0], "eta": [0.001, 0]}]},
           "kmax": 2, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "simulate"]) == 0
    rows = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",", skiprows=1)
    assert rows.shape == (5, 7)
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, 6] == 0.0)  # mass


def ref_filter(op, w, V):
    """Kept eigenpair indices and residuals, one column at a time."""
    keep, res = [], []
    for i in range(w.size):
        if not np.isfinite(w[i]) or np.linalg.norm(V[:, i]) == 0.0:
            continue
        r = np.linalg.norm(op.L @ V[:, i] - w[i] * (op.B @ V[:, i])) / np.linalg.norm(V[:, i])
        if r <= st.RESIDUAL_FILTER:
            keep.append(i)
            res.append(r)
    return np.asarray(keep), np.asarray(res)


@pytest.mark.parametrize("k", [(0, 0), (1, 0), (2, -1)])
def test_residual_filter_matches_column_loop(k):
    s = simulator(2)
    op = s.op(k)
    spec = st.solve_spectrum(op)
    w, V = scipy.linalg.eig(op.L, op.B)
    keep, res = ref_filter(op, w, V)
    order = np.argsort(w[keep].real, kind="stable")
    assert np.array_equal(spec.eigenvalues, w[keep[order]])
    assert np.array_equal(spec.eigenvectors, V[:, keep[order]])
    # residuals are roundoff-sized; they must agree far below the filter threshold
    assert np.max(np.abs(spec.residuals - res[order])) <= 1e-3 * st.RESIDUAL_FILTER


# -- the real frame and the stack-resident run loop ------------------------------------


def implicit_matrices(op, dt, scheme):
    """The implicit pair A1 x_new = A2 x of one mode, as in `ref_factors`."""
    theta = 0.5 if scheme == "crank-nicolson" else 1.0
    A1 = op.B / dt + theta * op.L
    A2 = op.B / dt - (1.0 - theta) * op.L
    A2[np.abs(op.B).sum(axis=1) == 0.0, :] = 0.0
    if not any(op.k):
        bottom = (op.n + 2) * op.M_v - 1
        A1[bottom, :] = 0.0
        A1[bottom, bottom] = 1.0
    return A1, A2


def phase(op):
    """S: -i on the horizontal velocity blocks, 1 on u_3, p and eta."""
    s = np.ones(op.dim, dtype=complex)
    s[:op.n * op.M_v] = -1j
    return s


FRAME_MODES = {1: [(0,), (3,), (N // 2,)], 2: [(0, 0), (1, -2), (N // 2, 1)]}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [1, 2])
def test_phase_makes_the_implicit_matrices_real(n, scheme):
    """k = 0, a generic k and a Nyquist k: S A S^-1 is exactly real for both
    implicit matrices, and the cached stack is the complex propagator in that frame."""
    s = simulator(n)
    keys = tuple(FRAME_MODES[n])
    P = s._propagator(keys, 1e-3, scheme)
    assert P.dtype == np.float64
    assert P.shape == (len(keys), s.layout.dim, s.layout.dim)
    for i, k in enumerate(keys):
        op = s.op(k)
        S = phase(op)
        A1, A2 = implicit_matrices(op, 1e-3, scheme)
        assert np.any(A1.imag) == any(k)  # a nonzero k has complex couplings to remove
        for A in (A1, A2):
            assert np.all((S[:, None] * A * S.conj()).imag == 0.0)
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A1), A2)
        back = S.conj()[:, None] * P[i] * S
        assert np.max(np.abs(back - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("record_ed", [True, False])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", sorted(STATES))
def test_run_equals_chained_steps(name, scheme, record_ed):
    """`run` on the stacked array, bit for bit against `step` and
    `_equilibrium_pair` on states; the output interval 3 does not divide 7 steps."""
    s, state = STATES[name]
    dt, nsteps = 1e-3, 7
    settings = sim.SimulationSettings(dt=dt, horizon=nsteps * dt, output_interval=3,
                                      scheme=scheme, record_ed=record_ed)
    trace, final = s.run(state, settings)
    chain = [state]
    for _ in range(nsteps):
        chain.append(s.step(chain[-1], dt, scheme))
    assert final.t == chain[-1].t
    assert list(final.modes) == list(chain[-1].modes)
    for k, x in chain[-1].modes.items():
        assert np.array_equal(final.modes[k], x)

    pairs = [s._equilibrium_pair(x) for x in chain]
    records = [0, 3, 6, nsteps]
    assert trace.t == [chain[i].t for i in records]
    assert trace.E_eq == [pairs[i][0] for i in records]
    assert trace.D_eq == [pairs[i][1] for i in records]
    if record_ed:
        half = [0.5 * (pairs[i][1] + pairs[i + 1][1]) for i in range(nsteps)]
        assert trace.ed_t == [chain[i].t + 0.5 * dt for i in range(nsteps)]
        assert trace.ed_dissipation == half
        assert trace.ed_residual == [(pairs[i + 1][0] - pairs[i][0]) / dt + half[i]
                                     for i in range(nsteps)]
    else:
        assert trace.ed_t == trace.ed_residual == trace.ed_dissipation == []
