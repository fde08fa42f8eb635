"""Time stepping, initial data, functionals, decay measurement."""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow.fourier import TorusGrid
from slabflow.geometry import DomainDegenerate, FlattenedDomain

BETA_STAR = (4 * np.pi**2 + 1) / (16 * np.pi**4)


def make_dom(N=32, Mv=24, b=1.0):
    return FlattenedDomain(b=b, horizontal=TorusGrid(2, N), M_v=Mv)


@pytest.fixture(scope="module")
def dom():
    return make_dom()


class TestAdmissibleData:
    def test_empty_spec_is_zero_state(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.admissible_data([])
        assert not state.modes
        assert state.mass() == 0.0

    def test_eta_only_spec(self, dom):
        # u = 0: the velocity admissibility conditions hold vacuously
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.admissible_data([sim.ModeSeed((2, 1), eta=1e-3)])
        assert state.divergence_residual() == 0.0
        assert state.bottom_slip() == 0.0
        assert abs(state.eta().sobolev_norm(0.0) - 1e-3 * np.sqrt(2.0)) <= 1e-15
        assert abs(state.mass()) == 0.0

    def test_random_three_mode_spec_residuals(self, dom):
        rng = np.random.default_rng(14)
        s = sim.Simulator(dn.willmore(), 0.0, dom)
        seeds = []
        for k in [(1, 0), (2, 1), (0, 2)]:
            seeds.append(sim.ModeSeed(
                k,
                eta=1e-3 * (rng.standard_normal() + 1j * rng.standard_normal()),
                u=1e-3 * (rng.standard_normal() + 1j * rng.standard_normal()),
            ))
        state = s.admissible_data(seeds)
        assert state.divergence_residual() <= 1e-9
        assert state.bottom_slip() <= 1e-9
        assert state.tangential_stress_residual() <= 1e-9
        assert abs(state.mass()) <= 1e-14

    def test_zero_average_enforced(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        with pytest.raises(ValueError):
            s.admissible_data([sim.ModeSeed((0, 0), eta=1e-3)])

    def test_degenerate_amplitude_rejected(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        with pytest.raises(DomainDegenerate):
            s.admissible_data([sim.ModeSeed((1, 0), eta=0.5)])


class TestInitPressure:
    def test_zero_state(self, dom):
        s = sim.Simulator(dn.willmore(), 0.0, dom)
        state = s.init_pressure(s.admissible_data([]))
        assert not state.modes

    def test_quiescent_cosine_closed_form(self, dom):
        # u = 0: p solves p'' = k^2 p, p(0) = sigma eta_hat, p'(-b) = 0
        s = sim.Simulator(dn.willmore(), 0.0, dom)
        Mv = dom.M_v
        x = np.zeros(4 * Mv + 1, dtype=complex)
        x[4 * Mv] = 0.5
        state = sim.FlattenedState(dom, {(1, 0): x}, 0.0)
        state = s.init_pressure(state)
        p = state.modes[(1, 0)][3 * Mv:4 * Mv]
        kap = 2 * np.pi
        expect = s.sigma((1, 0)) * 0.5 * np.cosh(kap * (dom.x3 + 1.0)) / np.cosh(kap)
        assert np.max(np.abs(p - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_matches_eigenvector_pressure(self, dom):
        # the compatible pressure of an eigenvector's (u, eta) is the
        # eigenvector's own pressure block: no impulsive correction at t = 0
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.eigenmode_data((1, 0), 1e-3)
        Mv = dom.M_v
        p_eig = state.modes[(1, 0)][3 * Mv:4 * Mv].copy()
        rebuilt = s.init_pressure(state)
        p_bvp = rebuilt.modes[(1, 0)][3 * Mv:4 * Mv]
        assert np.max(np.abs(p_bvp - p_eig)) <= 1e-9 * np.max(np.abs(p_eig))

    def test_no_pressure_impulse(self, dom):
        # with the compatible pressure, the first-step discrete ED residual
        # of dynamically resolved data is already second order in dt
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        spec = st.solve_spectrum(s.op((1, 0)))
        v0 = spec.eigenvectors[:, 0]
        v2 = spec.eigenvectors[:, 2]
        mode = 1e-3 * (v0 / np.max(np.abs(v0)) + 0.5 * v2 / np.max(np.abs(v2)))
        state = sim.FlattenedState(dom, {(1, 0): mode}, 0.0)
        firsts = []
        for dt in (4e-3, 2e-3, 1e-3):
            settings = sim.SimulationSettings(dt=dt, horizon=dt, output_interval=10**9)
            trace, _ = s.run(state, settings)
            firsts.append(abs(trace.ed_residual[0]))
        assert firsts[0] / firsts[2] > 8.0  # at least ~O(dt^2) decay over 4x in dt


class TestStep:
    def test_zero_state_stays_zero(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.admissible_data([])
        out = s.step(state, 1e-3)
        assert not out.modes
        assert out.t == pytest.approx(1e-3)

    def test_eigenmode_propagation_second_order(self, dom):
        s = sim.Simulator(dn.willmore(), 0.0, dom)
        spec = st.solve_spectrum(s.op((1, 0)))
        lam = spec.eigenvalues[0]
        state0 = s.eigenmode_data((1, 0), 1e-3)
        T = 0.1
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            cur = state0
            for _ in range(int(round(T / dt))):
                cur = s.step(cur, dt)
            exact = state0.modes[(1, 0)] * np.exp(-lam * T)
            errs.append(np.linalg.norm(cur.modes[(1, 0)] - exact)
                        / np.linalg.norm(state0.modes[(1, 0)]))
        orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(2.0)
        assert np.all(np.abs(orders - 2.0) < 0.2)

    def test_backward_euler_first_order(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        spec = st.solve_spectrum(s.op((1, 0)))
        lam = spec.eigenvalues[0]
        state0 = s.eigenmode_data((1, 0), 1e-3)
        T = 0.1
        errs = []
        for dt in (2e-3, 1e-3):
            cur = state0
            for _ in range(int(round(T / dt))):
                cur = s.step(cur, dt, scheme="backward-euler")
            exact = state0.modes[(1, 0)] * np.exp(-lam * T)
            errs.append(np.linalg.norm(cur.modes[(1, 0)] - exact))
        order = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert abs(order - 1.0) < 0.2

    def test_unknown_scheme_rejected_before_caching(self, dom):
        # a misspelt scheme once ran backward Euler and cached its propagator
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.eigenmode_data((1, 0), 1e-3)
        s.step(state, 1e-2)
        keys, _ = state.stack()
        cached = dict(s._mode_set(keys).propagators)
        with pytest.raises(ValueError, match="unknown scheme 'crank-nicholson'"):
            s.step(state, 1e-2, "crank-nicholson")
        assert s._mode_set(keys).propagators.keys() == cached.keys()
        assert all(s._mode_set(keys).propagators[key] is P for key, P in cached.items())

    def test_mass_conserved_over_thousand_steps(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.init_pressure(s.admissible_data(
            [sim.ModeSeed((0, 0), u=1e-2), sim.ModeSeed((1, 0), eta=1e-3)]))
        m0 = state.mass()
        cur = state
        for _ in range(1000):
            cur = s.step(cur, 1e-3)
        assert abs(cur.mass() - m0) <= 1e-14

    def test_equilibrium_is_steady(self, dom):
        s = sim.Simulator(dn.willmore(), 1.0, dom)
        cur = sim.FlattenedState(dom, {}, 0.0)
        for _ in range(10):
            cur = s.step(cur, 1e-3)
        assert not cur.modes  # identically zero state


class TestFunctionals:
    def test_zero_state_all_zero(self, dom):
        s = sim.Simulator(dn.willmore(), 0.0, dom)
        rec = s.functionals(sim.FlattenedState(dom, {}, 0.0))
        assert all(v == 0.0 for v in rec.values())

    def test_surface_only_parabolic_sum(self, dom):
        # u = p = 0, eta = amp cos(2 pi x1): E_eq = Q_0(eta) (1 + k^2 + k^4),
        # the quadratic form replicated over the derivative copies
        s = sim.Simulator(dn.willmore(), 0.0, dom)
        Mv = dom.M_v
        amp = 0.02
        x = np.zeros(4 * Mv + 1, dtype=complex)
        x[4 * Mv] = amp / 2.0
        state = sim.FlattenedState(dom, {(1, 0): x}, 0.0)
        k2 = (2 * np.pi) ** 2
        q0 = 4 * np.pi**4 * amp**2  # Q_0(amp cos(2 pi x1)) for the bending density
        expect = q0 * (1.0 + k2 + k2**2)
        E_eq, D_eq = s._equilibrium_pair(state)
        assert abs(E_eq - expect) <= 1e-10 * expect
        assert D_eq == 0.0
        rec = s.functionals(state)  # diagnostic geometry stays valid at this amplitude
        assert abs(rec["E_eq"] - expect) <= 1e-10 * expect

    def test_geometric_equals_equilibrium_on_flat_surface(self, dom):
        s = sim.Simulator(dn.combo(-1.0, 0.5), -0.5, dom)
        state = s.init_pressure(s.admissible_data([sim.ModeSeed((1, 0), u=1e-2)]))
        # remove the surface component: flat interface moving fluid
        Mv = dom.M_v
        for x in state.modes.values():
            x[4 * Mv] = 0.0
        rec = s.functionals(state)
        assert abs(rec["E_geo"] - rec["E_eq"]) <= 1e-12 * max(rec["E_eq"], 1.0)
        assert abs(rec["D_geo"] - rec["D_eq"]) <= 1e-12 * max(rec["D_eq"], 1.0)

    def test_coercivity_along_decaying_run(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.eigenmode_data((1, 0), 1e-3)
        settings = sim.SimulationSettings(dt=2e-3, horizon=0.6, output_interval=30,
                                          record_ed=False)
        trace, _ = s.run(state, settings)
        ratios = np.array(trace.D_imp) / np.array(trace.E_imp)
        assert np.all(ratios > 0.0)
        assert ratios.max() / ratios.min() < 1.5  # fitted constant stable over the run


class TestRun:
    def test_zero_data_zero_trace(self, dom):
        s = sim.Simulator(dn.willmore(), 1.0, dom)
        settings = sim.SimulationSettings(dt=1e-2, horizon=0.1, output_interval=2)
        trace, final = s.run(sim.FlattenedState(dom, {}, 0.0), settings)
        assert all(v == 0.0 for v in trace.E_eq)
        assert all(v == 0.0 for v in trace.mass)
        assert max(abs(r) for r in trace.ed_residual) == 0.0

    def test_trace_monotone_time_and_csv_shape(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        state = s.eigenmode_data((1, 0), 1e-3)
        settings = sim.SimulationSettings(dt=1e-3, horizon=0.05, output_interval=10)
        trace, _ = s.run(state, settings)
        t = np.array(trace.t)
        assert np.all(np.diff(t) > 0)
        csv = trace.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "t,E_eq,D_eq,E_imp,D_imp,E_geo,mass"
        assert len(lines) == len(trace.t) + 1
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_energy_decay_matches_eigenvalue(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        spec = st.solve_spectrum(s.op((1, 0)))
        lam = spec.lambda_min
        state = s.eigenmode_data((1, 0), 1e-4)
        T = 4.0 / lam
        nst = int(round(T / 1e-3))
        settings = sim.SimulationSettings(dt=1e-3, horizon=T,
                                          output_interval=max(1, nst // 40),
                                          record_ed=False)
        trace, _ = s.run(state, settings)
        rate, r2, valid = sim.measure_decay_rate(trace)
        assert valid
        assert abs(rate - 2 * lam) <= 0.02 * 2 * lam

    def test_ed_residual_second_order(self, dom):
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        modes = {}
        for kt, idx, w in [((1, 0), 0, 1.0), ((1, 1), 0, 0.7), ((2, 0), 0, 0.4)]:
            spec = st.solve_spectrum(s.op(kt))
            v = spec.eigenvectors[:, idx].copy()
            modes[kt] = modes.get(kt, 0) + 1e-3 * w * v / np.max(np.abs(v))
        state = sim.FlattenedState(dom, modes, 0.0)
        res = []
        for dt in (4e-3, 2e-3, 1e-3):
            settings = sim.SimulationSettings(dt=dt, horizon=0.4, output_interval=10**9)
            trace, _ = s.run(state, settings)
            res.append(trace.ed_relative_residual())
        orders = np.log(np.array(res[:-1]) / np.array(res[1:])) / np.log(2.0)
        assert res[-1] <= 1e-3
        assert np.all(orders > 1.7)

    def test_ed_relative_residual_needs_the_ed_series(self, dom):
        """A run without the ED series has no residual to report, not an exact 0.0."""
        s = sim.Simulator(dn.area(1.0), 1.0, dom)
        settings = sim.SimulationSettings(dt=1e-3, horizon=2e-3, record_ed=False)
        trace, _ = s.run(s.eigenmode_data((1, 0), 1e-3), settings)
        assert trace.ed_residual == []
        with pytest.raises(ValueError, match="record_ed"):
            trace.ed_relative_residual()


class TestMeasureDecayRate:
    def _trace(self, t, E):
        trace = sim.EnergyTrace()
        for ti, Ei in zip(t, E):
            trace.append(ti, {"E_eq": Ei, "D_eq": 0, "E_imp": 0, "D_imp": 0,
                              "E_geo": 0, "D_geo": 0}, 0.0)
        return trace

    def test_synthetic_pure_exponential(self):
        t = np.linspace(0, 3, 40)
        rate, r2, valid = sim.measure_decay_rate(self._trace(t, np.exp(-2 * t)))
        assert abs(rate - 2.0) <= 1e-10
        assert valid

    def test_synthetic_with_prefactor(self):
        t = np.linspace(0, 8, 60)
        rate, _, valid = sim.measure_decay_rate(self._trace(t, 3 * np.exp(-0.5 * t)))
        assert abs(rate - 0.5) <= 1e-10
        assert valid

    def test_too_few_samples(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(sim.FitError):
            sim.measure_decay_rate(self._trace(t, np.exp(-t)))

    def test_nonpositive_energy(self):
        t = np.linspace(0, 1, 20)
        E = np.exp(-t)
        E[-1] = 0.0
        with pytest.raises(sim.FitError):
            sim.measure_decay_rate(self._trace(t, E))

    def test_noisy_fit_flagged_invalid(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 3, 50)
        E = np.exp(-t) * np.exp(rng.normal(0, 0.5, t.size))
        _, r2, valid = sim.measure_decay_rate(self._trace(t, E))
        assert not valid


class TestSettings:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            sim.SimulationSettings(dt=0.0)
        with pytest.raises(ValueError):
            sim.SimulationSettings(horizon=-1.0)
        with pytest.raises(ValueError):
            sim.SimulationSettings(scheme="leapfrog")
