"""Per-wavevector eigenproblems: assembly, spectra, the backward-Euler resolvent, decay rates."""

from itertools import product

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow import stability as st
from slabflow.cli import _validation_suite
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain
from slabflow.surface_energy import EllipticityResult, ellipticity_check, hessian_symbol

BETA_STAR = (4 * np.pi**2 + 1) / (16 * np.pi**4)


def op_for(density, g, k, b=1.0, Mv=24):
    kt = tuple(k)
    sigma = 0.0 if all(c == 0 for c in kt) else hessian_symbol(density, g, kt)
    return st.assemble_mode(kt, b, sigma, Mv)


class TestAssembly:
    def test_dimensions(self):
        op = op_for(dn.willmore(), 0.0, (1, 0), Mv=24)
        assert op.dim == 4 * 24 + 1
        assert op.L.shape == (97, 97)
        assert op.B.shape == (97, 97)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            st.assemble_mode((1, 0), 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            st.assemble_mode((1, 0), 1.0, float("inf"), 16)

    def test_zero_mode_branch(self):
        # horizontal velocity relaxes at ((2m+1) pi / (2b))^2; surface frozen
        b = 1.3
        op = st.assemble_mode((0, 0), b, 0.0, 24)
        spec = st.solve_spectrum(op)
        rates = np.sort(spec.eigenvalues.real)
        expect = (np.pi / (2 * b)) ** 2
        assert abs(rates[0] - expect) < 1e-9 * expect
        assert abs(rates[1] - expect) < 1e-9 * expect  # two horizontal components
        assert abs(rates[2] - 9 * expect) < 1e-8 * 9 * expect

    def test_neutral_translation_mode_without_restoring_force(self):
        spec = st.solve_spectrum(st.assemble_mode((1, 0), 1.0, 0.0, 20))
        assert np.min(np.abs(spec.eigenvalues)) < 1e-10


class TestSpectrum:
    @pytest.mark.parametrize("density,g", [
        (dn.area(1.0), -1.0), (dn.area(1.0), 0.0), (dn.area(1.0), 1.0),
        (dn.willmore(), -1.0), (dn.willmore(), 0.0), (dn.willmore(), 1.0),
        (dn.combo(-1.0, 1.01 * BETA_STAR), -1.0),
    ], ids=lambda v: getattr(v, "name", v))
    def test_elliptic_configurations_decay(self, density, g):
        assert ellipticity_check(density, g, 4).verdict
        for k in [(1, 0), (1, 1), (2, 0), (3, 2), (4, 4)]:
            spec = st.solve_spectrum(op_for(density, g, k, Mv=20))
            assert np.all(spec.eigenvalues.real > 0.0), (density.name, g, k)

    def test_threshold_flip_controls_least_damped_sign(self):
        below = dn.combo(-1.0, 0.99 * BETA_STAR)
        above = dn.combo(-1.0, 1.01 * BETA_STAR)
        assert not ellipticity_check(below, -1.0, 2).verdict
        s_b = st.solve_spectrum(op_for(below, -1.0, (1, 0)))
        s_a = st.solve_spectrum(op_for(above, -1.0, (1, 0)))
        assert s_b.lambda_min < 0.0 < s_a.lambda_min
        # sign matches the symbol at the scan argmin
        assert hessian_symbol(below, -1.0, (1, 0)) < 0.0
        assert hessian_symbol(above, -1.0, (1, 0)) > 0.0

    def test_bending_damps_high_wavenumbers_harder(self):
        a = st.solve_spectrum(op_for(dn.willmore(), 0.0, (1, 0)))
        b = st.solve_spectrum(op_for(dn.willmore(), 0.0, (2, 0)))
        assert b.lambda_min > a.lambda_min

    def test_vertical_resolution_convergence(self):
        sigma = hessian_symbol(dn.willmore(), 0.0, (1, 0))
        lam24 = st.solve_spectrum(st.assemble_mode((1, 0), 1.0, sigma, 24)).lambda_min
        lam48 = st.solve_spectrum(st.assemble_mode((1, 0), 1.0, sigma, 48)).lambda_min
        assert abs(lam24 - lam48) <= 1e-8

    def test_eigenvector_incompressibility(self):
        op = op_for(dn.area(1.0), 1.0, (1, 0))
        spec = st.solve_spectrum(op)
        kappa = 2 * np.pi * np.array([1.0, 0.0])
        for i in range(min(4, spec.eigenvalues.size)):
            v = spec.eigenvectors[:, i]
            div = (1j * kappa[0] * v[op.slice_u(0)] + 1j * kappa[1] * v[op.slice_u(1)]
                   + op.D @ v[op.slice_u(2)])
            assert np.max(np.abs(div)) <= 1e-9 * np.linalg.norm(v)

    def test_conjugate_wavevector_pairing(self):
        op_p = op_for(dn.willmore(), 0.0, (1, 2))
        op_m = op_for(dn.willmore(), 0.0, (-1, -2))
        s_p = st.solve_spectrum(op_p)
        s_m = st.solve_spectrum(op_m)
        assert abs(s_p.lambda_min - s_m.lambda_min) < 1e-8 * abs(s_p.lambda_min)
        # spectra coincide: conjugates of one match the other as multisets
        a = np.sort_complex(np.conj(s_p.eigenvalues[:10]))
        b = np.sort_complex(s_m.eigenvalues[:10])
        for lam in a:
            assert np.min(np.abs(b - lam)) < 1e-6 * max(1.0, abs(lam))


def simulator(density, g):
    """The depth and vertical resolution of `op_for`: b = 1, M_v = 24."""
    return sim.Simulator(density, g, FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 8), M_v=24))


def backward_euler(s, k, dt, x):
    """One backward-Euler step of the simulator's propagator from the mode vector x at k:
    (B/dt + L) y = B x / dt."""
    return s.step(sim.FlattenedState(s.dom, {k: x}), dt, "backward-euler").X[0]


class TestResolvent:
    """A backward-Euler step of `Simulator.step` is the resolvent of the mode pencil."""

    def test_zero_rhs(self):
        s = simulator(dn.willmore(), 0.0)
        x = backward_euler(s, (1, 0), 1e-2, np.zeros(s.layout.dim, dtype=complex))
        assert np.max(np.abs(x)) == 0.0

    def test_eigenvector_identity(self):
        s = simulator(dn.willmore(), 0.0)
        spec = st.solve_spectrum(s.op((1, 0)))
        lam, v = spec.eigenvalues[0], spec.eigenvectors[:, 0]
        x = backward_euler(s, (1, 0), 5e-3, v)
        assert np.linalg.norm(x - v / (1 + lam * 5e-3)) <= 1e-9 * np.linalg.norm(v)

    def test_manufactured_polynomial_solution(self):
        # a state satisfying every constraint row exactly; recover it from its
        # backward-Euler image
        b, Mv = 1.0, 24
        kt = (1, 0)
        s = simulator(dn.area(1.0), 1.0)
        sigma = s.sigma(kt)
        op = s.op(kt)
        x3, D = op.x3, op.D
        kappa = 2 * np.pi * np.array([1.0, 0.0])
        k2 = float(kappa @ kappa)
        c1 = -(2.0 + k2 * b * b) / (4.0 * b)
        w = (x3 + b) ** 2 * (1.0 + c1 * x3)
        x = np.zeros(op.dim, dtype=complex)
        x[op.slice_u(2)] = w
        x[op.slice_u(0)] = 1j * kappa[0] * (D @ w) / k2
        p = 0.3 + 0.1 * x3  # any smooth pressure; the normal-stress row fixes eta
        x[op.slice_p] = p
        x[op.idx_eta] = (p[0] - 2.0 * (D @ w)[0]) / sigma
        assert np.max(np.abs(op.L @ x - op.B @ (op.L @ x) * 0 - op.L @ x)) == 0  # sanity
        # constraint rows vanish on x
        algebraic = np.where(np.abs(op.B).sum(axis=1) == 0)[0]
        assert np.max(np.abs((op.L @ x)[algebraic])) < 1e-9
        dt = 1e-2
        rhs_image = (op.B / dt + op.L) @ x
        # feed the forward image through the stepper: B rhs / dt = image
        # requires rhs with B rhs = dt * image on dynamic rows
        rhs = np.zeros_like(x)
        dynamic = np.where(np.abs(op.B).sum(axis=1) > 0)[0]
        rhs[dynamic] = dt * rhs_image[dynamic]
        recovered = backward_euler(s, kt, dt, rhs)
        assert np.max(np.abs(recovered - x)) <= 1e-9 * np.max(np.abs(x))

    def test_invalid_dt(self):
        s = simulator(dn.willmore(), 0.0)
        with pytest.raises(ValueError):
            backward_euler(s, (1, 0), 0.0, np.zeros(s.layout.dim, dtype=complex))

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_caches_no_propagator(self, dt):
        s = simulator(dn.willmore(), 0.0)
        state = sim.FlattenedState(s.dom, {(1, 0): np.zeros(s.layout.dim, dtype=complex)})
        s.step(state, 1e-2, "backward-euler")
        for scheme in ("backward-euler", "crank-nicolson"):
            with pytest.raises(ValueError, match="dt must be positive"):
                s.step(state, dt, scheme)
        assert list(s._mode_set(state.keys).propagators) == [(1e-2, "backward-euler")]

    def test_validate_row_is_one_backward_euler_step(self, monkeypatch):
        calls = []
        step = sim.Simulator.step

        def spy(self, state, dt, scheme="crank-nicolson"):
            calls.append((state.keys, dt, scheme))
            return step(self, state, dt, scheme)

        def suite():
            calls.clear()
            rows = {name: (value, tol) for name, value, tol in _validation_suite(0)}
            return rows, [c for c in calls if c[2] == "backward-euler"]

        monkeypatch.setattr(sim.Simulator, "step", spy)
        rows, implicit = suite()
        assert implicit == [(((1, 0),), 1e-2, "backward-euler")]
        assert rows["resolvent_eigen_identity"][1] == 1e-8
        assert rows["resolvent_eigen_identity"][0] <= 1e-8
        # the row reads that step's output: zeroing it moves the row to 1 / (1 + lambda dt)

        def zero(self, state, dt, scheme="crank-nicolson"):
            out = spy(self, state, dt, scheme)
            return out._like(0 * out.X, out.t) if scheme == "backward-euler" else out

        monkeypatch.setattr(sim.Simulator, "step", zero)
        rows, implicit = suite()
        assert len(implicit) == 1
        assert rows["resolvent_eigen_identity"][0] > 0.5


class TestGlobalDecayRate:
    def test_restriction_consistency(self):
        # combo near threshold: the slowest mode sits at |k| = 1, so the scan
        # with kmax = 1 equals the scan with kmax = 4
        f = dn.combo(-1.0, 1.01 * BETA_STAR)
        lam1, k1 = st.global_decay_rate(f, -1.0, 1.0, 1, 16)
        lam4, k4 = st.global_decay_rate(f, -1.0, 1.0, 4, 16)
        assert abs(lam1 - lam4) < 1e-10 * abs(lam1)
        assert sum(c * c for c in k4) == 1

    def test_zero_branch_can_win(self):
        # strong restoring forces push surface modes fast; the horizontal
        # mean-flow relaxation (pi/2b)^2 sets the global rate
        lam, kmin = st.global_decay_rate(dn.willmore(), 0.0, 1.0, 2, 16)
        assert kmin == (0, 0)
        assert abs(lam - (np.pi / 2) ** 2) < 1e-8

    def test_stable_under_vertical_refinement(self):
        f = dn.area(1.0)
        lam1, _ = st.global_decay_rate(f, 1.0, 1.0, 2, 24)
        lam2, _ = st.global_decay_rate(f, 1.0, 1.0, 2, 32)
        assert abs(lam1 - lam2) <= 1e-8

    def test_rigid_lid_limit(self):
        # sigma -> infinity approaches the Stokes relaxation with a pinned top
        lams = []
        for beta in (1e3, 1e4):
            spec = st.solve_spectrum(st.assemble_mode(
                (1, 0), 1.0, hessian_symbol(dn.combo(0.0, beta), 0.0, (1, 0)), 20))
            lams.append(spec.lambda_min)
        assert abs(lams[0] - lams[1]) <= 0.01 * abs(lams[1])


def test_conjugacy_representative_count():
    # |k|_inf <= 2 up to conjugacy: 12 nonzero representatives
    assert len(st.conjugacy_representatives(2, 2)) == 12
    assert len(st.conjugacy_representatives(1, 1)) == 1


def full_box_ellipticity(density, g, kmax, n):
    """sigma(k)/|2 pi k|^4 over every 0 < |k|_inf <= kmax in (|k|^2, k) order,
    first minimum below the best by more than 1e-15, reported by its representative."""
    box = sorted((k for k in product(range(-kmax, kmax + 1), repeat=n) if any(k)),
                 key=lambda kt: (sum(c * c for c in kt), kt))
    best = best_k = None
    for kt in box:
        kappa4 = (2 * np.pi) ** 4 * sum(c * c for c in kt) ** 2
        ratio = hessian_symbol(density, g, kt, n=n) / kappa4
        if best is None or ratio < best - 1e-15:
            best, best_k = ratio, kt
    return EllipticityResult(best, max(best_k, tuple(-c for c in best_k)), best > 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_representative_scan_matches_the_full_box(n):
    C0 = [[2.0, 0.3], [0.3, 1.0]] if n == 2 else [[2.0]]
    densities = [dn.area(1.0), dn.willmore(), dn.scalar_willmore(1.0, 0.7, n=n),
                 dn.anisotropic(C0=C0, n=n), dn.combo(-1.0, 0.5), dn.combo(-1.0, 0.5 * BETA_STAR)]
    verdicts = set()
    for density, g, kmax in product(densities, (0.0, 1.0, -1.0), range(1, 5)):
        result = ellipticity_check(density, g, kmax, n)
        assert result == full_box_ellipticity(density, g, kmax, n)
        verdicts.add(result.verdict)
    assert verdicts == {True, False}
