"""Surface energy, variations, flat-state symbol, ellipticity, Taylor splits."""

import numpy as np
import pytest
from scipy.integrate import quad

from slabflow import densities as dn
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid, random_band_limited

BETA_STAR = (4 * np.pi**2 + 1) / (16 * np.pi**4)

ALL_FAMILIES = [
    dn.area(1.0),
    dn.willmore(),
    dn.scalar_willmore(1.0, 0.7),
    dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]]),
    dn.combo(-1.0, 0.5),
]


def grid2(N=32):
    return TorusGrid(2, N)


def cosx1(grid, amp=1.0):
    return SpectralField.from_modes(grid, {(1, 0): amp / 2.0})


class TestEnergy:
    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_zero_surface(self, f):
        assert se.energy(f, SpectralField.zero(grid2())) == 0.0

    def test_area_small_amplitude(self):
        # W(eps cos) for the area density against an independent quadrature
        eps = 1e-3
        g = grid2()
        W = se.energy(dn.area(1.0), cosx1(g, eps))
        oracle, _ = quad(
            lambda x: np.sqrt(1.0 + eps**2 * 4 * np.pi**2 * np.sin(2 * np.pi * x) ** 2) - 1.0,
            0.0, 1.0, epsabs=1e-16, epsrel=1e-14)
        assert abs(W - oracle) <= 1e-8 * oracle
        # leading term pi^2 eps^2
        assert abs(W - np.pi**2 * eps**2) <= 1e-5 * np.pi**2 * eps**2

    def test_scalar_bending_single_mode(self):
        W = se.energy(dn.scalar_willmore(1.0), cosx1(grid2()))
        assert abs(W - 4 * np.pi**4) <= 1e-12 * 4 * np.pi**4


class TestFirstVariation:
    def test_flat_surface_gives_zero(self):
        out = se.first_variation(dn.area(2.0), SpectralField.zero(grid2()))
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_constant_coefficient_biharmonic(self):
        g = grid2()
        eta = cosx1(g)
        out = se.first_variation(dn.scalar_willmore(1.0), eta)
        expect = (2 * np.pi) ** 4
        assert np.max(np.abs(out.samples() - expect * eta.samples())) < 1e-9 * expect

    def test_odd_profile_gives_odd_force(self):
        # discretized tanh window on the line, n = 1
        g = TorusGrid(1, 256)
        x = (np.arange(256) / 256 - 0.5) * 20.0
        a, w = 6.0, 2.0
        blend = np.ones_like(x)
        ramp = (np.abs(x) > a) & (np.abs(x) < a + w)
        blend[ramp] = 0.5 * (1 + np.cos(np.pi * (np.abs(x[ramp]) - a) / w))
        blend[np.abs(x) >= a + w] = 0.0
        eta = SpectralField.from_samples(g, -np.tanh(x) * blend)
        out = se.first_variation(dn.willmore(), eta).samples()
        scale = np.max(np.abs(out))
        j = np.arange(1, 256)
        assert abs(out[np.argmin(np.abs(x))]) < 1e-9 * scale
        assert np.max(np.abs(out[j] + out[256 - j])) < 1e-8 * scale

    @pytest.mark.parametrize("fi", range(len(ALL_FAMILIES)),
                             ids=[f.name for f in ALL_FAMILIES])
    def test_gradient_consistency(self, fi):
        f = ALL_FAMILIES[fi]
        g = grid2()
        rng = np.random.default_rng(1000 + fi)
        for _ in range(3):
            eta = random_band_limited(g, 8, 0.1, rng)
            phi = random_band_limited(g, 8, 0.1, rng)
            dw = se.first_variation(f, eta)
            pair = dw.l2_inner(phi)
            scale = dw.sobolev_norm(0.0) * phi.sobolev_norm(0.0)
            errs, floors = [], []
            eps_list = np.array([1e-3 / 2**i for i in range(7)])  # halving 1e-3 -> ~1e-5
            for eps in eps_list:
                Wp = se.energy(f, eta + eps * phi)
                Wm = se.energy(f, eta - eps * phi)
                errs.append(abs((Wp - Wm) / (2 * eps) - pair))
                floors.append(np.finfo(float).eps * max(abs(Wp), abs(Wm), 1e-30) / (2 * eps))
            errs = np.asarray(errs)
            fd = (se.energy(f, eta + 1e-4 * phi) - se.energy(f, eta - 1e-4 * phi)) / 2e-4
            assert abs(fd - pair) <= 1e-6 * scale
            keep = errs > 100.0 * np.asarray(floors)  # drop roundoff-floor points
            if keep.sum() < 3:
                continue  # quadratic density: differences are exact to roundoff
            slope = np.polyfit(np.log(eps_list[keep]), np.log(errs[keep]), 1)[0]
            assert abs(slope - 2.0) < 0.1

    def test_expanded_form_matches_adjoint_form(self):
        # the explicit fourth-order expansion agrees with the adjoint gradient
        # up to coefficient-field aliasing, which vanishes with amplitude
        g = grid2()
        rng = np.random.default_rng(99)
        base = random_band_limited(g, 4, 1.0, rng)
        errs = []
        for amp in (4e-2, 2e-2, 1e-2):
            eta = amp * base
            a = se.first_variation(dn.willmore(), eta)
            b = se.first_variation_expanded(dn.willmore(), eta)
            scale = np.max(np.abs(a.coeffs))
            errs.append(np.max(np.abs(a.coeffs - b.coeffs)) / scale)
        assert errs[0] < 5e-3
        assert errs[2] < errs[0] / 8  # higher than first order in amplitude


class TestSecondVariation:
    def test_willmore_flat_symbol(self):
        g = grid2()
        phi = cosx1(g)
        out = se.second_variation_apply(dn.willmore(), SpectralField.zero(g), phi)
        expect = (2 * np.pi) ** 4
        assert np.max(np.abs(out.samples() - expect * phi.samples())) < 1e-10 * expect

    def test_area_flat_symbol(self):
        g = grid2()
        phi = cosx1(g)
        out = se.second_variation_apply(dn.area(1.0), SpectralField.zero(g), phi)
        expect = 4 * np.pi**2
        assert np.max(np.abs(out.samples() - expect * phi.samples())) < 1e-12 * expect

    def test_linearity_zero_direction(self):
        g = grid2()
        eta = random_band_limited(g, 4, 0.05, np.random.default_rng(1))
        out = se.second_variation_apply(dn.combo(-1.0, 0.5), eta, SpectralField.zero(g))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_symmetry_and_mixed_differences(self):
        g = grid2()
        rng = np.random.default_rng(12)
        f = dn.willmore()
        eta = random_band_limited(g, 6, 0.05, rng)
        phi = random_band_limited(g, 6, 0.05, rng)
        psi = random_band_limited(g, 6, 0.05, rng)
        lhs = se.second_variation_apply(f, eta, phi).l2_inner(psi)
        rhs = se.second_variation_apply(f, eta, psi).l2_inner(phi)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)
        errs = []
        eps_list = [4e-3, 2e-3, 1e-3]
        for eps in eps_list:
            fd = (se.energy(f, eta + eps * (phi + psi)) - se.energy(f, eta + eps * (phi - psi))
                  - se.energy(f, eta - eps * (phi - psi)) + se.energy(f, eta - eps * (phi + psi))
                  ) / (4 * eps**2)
            errs.append(abs(fd - lhs))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.15

    def test_variation_chain(self):
        # directional difference of the first variation equals the second variation
        g = grid2()
        rng = np.random.default_rng(21)
        f = dn.combo(-1.0, 0.5)
        eta = random_band_limited(g, 5, 0.05, rng)
        phi = random_band_limited(g, 5, 0.05, rng)
        lhs = se.second_variation_apply(f, eta, phi)
        errs = []
        eps_list = [2e-3, 1e-3, 5e-4]
        for eps in eps_list:
            diff = se.first_variation(f, eta + eps * phi) - se.first_variation(f, eta - eps * phi)
            errs.append(np.max(np.abs((1.0 / (2 * eps)) * diff.coeffs - lhs.coeffs)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.15


class TestThirdVariation:
    def test_vanishes_for_quadratic_density(self):
        g = grid2()
        rng = np.random.default_rng(5)
        eta = random_band_limited(g, 4, 0.05, rng)
        phi = random_band_limited(g, 4, 0.05, rng)
        out = se.third_variation_apply(dn.scalar_willmore(1.0), eta, phi, phi)
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_brute_force_t_derivative(self):
        g = grid2()
        f = dn.scalar_willmore(1.0, 1.0)
        phi = cosx1(g)
        # flat base state: the cubic pairing of a single cosine vanishes by parity,
        # matching the brute-force derivative
        lhs0 = se.third_variation_apply(f, SpectralField.zero(g), phi, phi).l2_inner(phi)

        def W(t):
            return se.energy(f, t * phi)

        eps = 1e-2
        fd0 = (W(2 * eps) - 2 * W(eps) + 2 * W(-eps) - W(-2 * eps)) / (2 * eps**3)
        assert abs(lhs0 - fd0) < 1e-8
        # curved base state: both sides nonzero
        eta = SpectralField.from_modes(g, {(1, 0): 0.02, (0, 1): 0.015})
        lhs = se.third_variation_apply(f, eta, phi, phi).l2_inner(phi)

        def Wc(t):
            return se.energy(f, eta + t * phi)

        errs = []
        for eps in (2e-2, 1e-2, 5e-3):
            fd = (Wc(2 * eps) - 2 * Wc(eps) + 2 * Wc(-eps) - Wc(-2 * eps)) / (2 * eps**3)
            errs.append(abs(fd - lhs))
        assert abs(lhs) > 1e-6
        assert errs[-1] <= 1e-3 * abs(lhs)

    def test_full_symmetry_of_pairing(self):
        g = grid2()
        rng = np.random.default_rng(8)
        f = dn.willmore()
        eta = random_band_limited(g, 4, 0.05, rng)
        a = random_band_limited(g, 4, 0.05, rng)
        b = random_band_limited(g, 4, 0.05, rng)
        c = random_band_limited(g, 4, 0.05, rng)
        v1 = se.third_variation_apply(f, eta, a, b).l2_inner(c)
        v2 = se.third_variation_apply(f, eta, b, c).l2_inner(a)
        v3 = se.third_variation_apply(f, eta, c, a).l2_inner(b)
        scale = max(abs(v1), 1e-30)
        assert abs(v1 - v2) < 1e-10 * scale
        assert abs(v1 - v3) < 1e-10 * scale


class TestQuadEnergy:
    def test_zero_direction(self):
        g = grid2()
        eta = random_band_limited(g, 4, 0.05, np.random.default_rng(2))
        assert se.quad_energy(dn.willmore(), eta, SpectralField.zero(g)) == 0.0

    def test_flat_willmore_value(self):
        g = grid2()
        q = se.quad_energy(dn.willmore(), SpectralField.zero(g), cosx1(g))
        assert abs(q - 4 * np.pi**4) < 1e-10 * 4 * np.pi**4

    def test_equals_half_pairing(self):
        g = grid2()
        rng = np.random.default_rng(3)
        f = dn.combo(-1.0, 0.5)
        eta = random_band_limited(g, 5, 0.05, rng)
        zeta = random_band_limited(g, 5, 0.05, rng)
        q = se.quad_energy(f, eta, zeta)
        pair = 0.5 * se.second_variation_apply(f, eta, zeta).l2_inner(zeta)
        assert abs(q - pair) <= 1e-10 * max(abs(q), 1e-30)

    def test_second_difference_oracle(self):
        g = grid2()
        rng = np.random.default_rng(4)
        f = dn.willmore()
        eta = random_band_limited(g, 5, 0.05, rng)
        zeta = random_band_limited(g, 5, 0.05, rng)
        q = se.quad_energy(f, eta, zeta)
        errs = []
        for eps in (4e-3, 2e-3, 1e-3):
            fd = (se.energy(f, eta + eps * zeta) - 2 * se.energy(f, eta)
                  + se.energy(f, eta - eps * zeta)) / (2 * eps**2)
            errs.append(abs(fd - q))
        assert errs[-1] <= 4 * errs[0] / 16 * 1.2 + 1e-12 * abs(q)


class TestHessianSymbol:
    def test_combo_arithmetic(self):
        alpha, beta, g = -0.7, 0.03, 0.4
        sig = se.hessian_symbol(dn.combo(alpha, beta), g, (1, 0))
        expect = 16 * np.pi**4 * beta + 4 * np.pi**2 * alpha + g
        assert abs(sig - expect) <= 1e-12 * abs(expect)

    def test_zero_density_returns_gravity(self):
        assert abs(se.hessian_symbol(dn.area(0.0), 1.0, (2, 1)) - 1.0) < 1e-15

    def test_area_diagonal_mode(self):
        sig = se.hessian_symbol(dn.area(1.0), 0.0, (1, 1))
        assert abs(sig - 8 * np.pi**2) <= 1e-12 * 8 * np.pi**2

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError):
            se.hessian_symbol(dn.area(1.0), 0.0, (0, 0))

    def test_diagonalizes_second_variation(self):
        g = grid2()
        zero = SpectralField.zero(g)
        for f in (dn.willmore(), dn.combo(-1.0, 0.5), dn.area(1.0)):
            for k in ((1, 0), (2, 1), (0, 3)):
                phi = SpectralField.from_modes(g, {k: 0.5})
                out = se.second_variation_apply(f, zero, phi)
                sig = se.hessian_symbol(f, 0.0, k)
                assert np.max(np.abs(out.coeffs - sig * phi.coeffs)) <= 1e-10 * abs(sig)


class TestEllipticity:
    def test_threshold_flip(self):
        above = se.ellipticity_check(dn.combo(-1.0, 1.01 * BETA_STAR), -1.0, 4)
        below = se.ellipticity_check(dn.combo(-1.0, 0.99 * BETA_STAR), -1.0, 4)
        assert above.verdict and not below.verdict
        assert sum(c * c for c in above.argmin_k) == 1
        assert sum(c * c for c in below.argmin_k) == 1

    def test_willmore_ratio_is_one(self):
        r = se.ellipticity_check(dn.willmore(), 0.0, 4)
        assert r.verdict
        assert abs(r.min_ratio - 1.0) < 1e-12

    def test_combo_ratio_monotone_in_wavenumber(self):
        f = dn.combo(-1.0, 1.5 * BETA_STAR)
        g = -1.0
        ratios = []
        for k in ((1, 0), (1, 1), (2, 0), (2, 2), (3, 0)):
            kap4 = (2 * np.pi) ** 4 * float(sum(c * c for c in k)) ** 2
            ratios.append(se.hessian_symbol(f, g, k) / kap4)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_invalid_kmax(self):
        with pytest.raises(ValueError):
            se.ellipticity_check(dn.willmore(), 0.0, 0)


class TestTaylorSplit:
    def test_origin(self):
        z = se.Jet(np.zeros(2), np.zeros((2, 2)))
        for k in (0, 1, 2):
            P, R = se.taylor_split(dn.willmore(), k, z)
            assert P == 0.0 and abs(R) < 1e-14

    def test_area_first_order(self):
        p = np.array([0.4, -0.3])
        z = se.Jet(p, np.zeros((2, 2)))
        P, R = se.taylor_split(dn.area(1.0), 1, z)
        assert abs(P) < 1e-14
        assert abs(R - (np.sqrt(1 + p @ p) - 1.0)) < 1e-12

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_sum_reproduces_density(self, f):
        rng = np.random.default_rng(41)
        for _ in range(3):
            p = rng.standard_normal(2) * 0.5
            M = rng.standard_normal((2, 2))
            M = 0.5 * (M + M.T)
            z = se.Jet(p, M)
            fz = float(f.value(p[None], M[None])[0])
            for k in (0, 1, 2):
                P, R = se.taylor_split(f, k, z)
                assert abs(P + R - fz) <= 1e-10 * max(1.0, abs(fz))

    def test_asymmetric_jet_rejected(self):
        with pytest.raises(ValueError):
            se.Jet(np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("p", [(0.4, -0.3), (1.2, 0.9), (2.0, 0.0), (0.0, 3.0)])
    def test_area_remainders_closed_form(self, p):
        # f = sqrt(1 + |p|^2) - 1 has f(0) = 0, grad f(0) = 0 and hess f(0) = I
        p = np.array(p)
        z = se.Jet(p, np.zeros((2, 2)))
        r1 = np.sqrt(1.0 + p @ p) - 1.0
        for k, exact in ((0, r1), (1, r1), (2, r1 - 0.5 * p @ p)):
            _, R = se.taylor_split(dn.area(1.0), k, z)
            assert abs(R - exact) <= 1e-12 * max(1.0, abs(exact))


class TestNonFiniteJet:
    """C(p) = sqrt(1 - |p|^2) I is undefined where the slope exceeds one."""

    F = dn.anisotropic(m0=1.0, m1=-1.0)

    @staticmethod
    def steep():
        return SpectralField.from_modes(TorusGrid(2, 16), {(1, 0): 0.25})  # slope up to pi

    CALLS = {
        "energy": lambda f, e: se.energy(f, e),
        "first_variation": lambda f, e: se.first_variation(f, e),
        "second_variation_apply": lambda f, e: se.second_variation_apply(f, e, e),
        "third_variation_apply": lambda f, e: se.third_variation_apply(f, e, e, e),
        "quad_energy": lambda f, e: se.quad_energy(f, e, e),
        "taylor_split": lambda f, e: se.taylor_split(
            f, 2, se.Jet(np.array([2.0, 0.0]), np.eye(2))),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_raises_evaluation_error(self, name):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(se.EvaluationError):
                self.CALLS[name](self.F, self.steep())
