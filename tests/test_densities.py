"""Energy density families: values, derivative tensors, normalization."""

import numpy as np
import pytest

from slabflow import densities as dn


ALL_FAMILIES = [
    dn.area(1.3),
    dn.willmore(),
    dn.scalar_willmore(1.0, 0.7),
    dn.anisotropic(C0=[[2.0, 0.3], [0.3, 1.0]]),
    dn.anisotropic(m0=1.5, m1=0.5),
    dn.combo(-1.0, 0.5),
]


def random_jet(rng, n=2, scale=0.5):
    p = rng.standard_normal(n) * scale
    M = rng.standard_normal((n, n))
    M = 0.5 * (M + M.T)
    return p, M


class TestNormalization:
    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_builtin_normalized(self, f):
        f0, (fp0, fM0), _ = f.at_origin(2)
        assert abs(f0) < 1e-15
        assert np.max(np.abs(fp0)) < 1e-15
        assert np.max(np.abs(fM0)) < 1e-15

    def test_constant_density_normalizes_to_zero(self):
        class Const(dn.EnergyDensity):
            def value(self, p, M):
                return np.full(np.asarray(p).shape[:-1], 5.0)

            def grad(self, p, M):
                p = np.asarray(p)
                n = p.shape[-1]
                return np.zeros(p.shape), np.zeros(p.shape[:-1] + (n, n))

        f = dn.normalize_density(Const(), n=2)
        rng = np.random.default_rng(0)
        p, M = random_jet(rng)
        assert abs(f.value(p[None], M[None])[0]) < 1e-15

    def test_pure_null_lagrangian_trace(self):
        class TraceM(dn.EnergyDensity):
            def value(self, p, M):
                return np.trace(np.asarray(M), axis1=-2, axis2=-1)

            def grad(self, p, M):
                p = np.asarray(p)
                n = p.shape[-1]
                fM = np.broadcast_to(np.eye(n), p.shape[:-1] + (n, n)).copy()
                return np.zeros(p.shape), fM

        f = dn.normalize_density(TraceM(), n=2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            p, M = random_jet(rng)
            assert abs(f.value(p[None], M[None])[0]) < 1e-14

    def test_quadratic_plus_constant(self):
        class Quad(dn.EnergyDensity):
            def value(self, p, M):
                p, M = np.asarray(p), np.asarray(M)
                return (np.sum(p**2, axis=-1) + np.sum(M**2, axis=(-2, -1)) + 3.0)

            def grad(self, p, M):
                return 2.0 * np.asarray(p), 2.0 * np.asarray(M)

        f = dn.normalize_density(Quad(), n=2)
        rng = np.random.default_rng(2)
        p, M = random_jet(rng)
        expect = np.sum(p**2) + np.sum(M**2)
        assert abs(f.value(p[None], M[None])[0] - expect) < 1e-13

    def test_energy_shift_is_constant(self):
        # surface energies of the raw and normalized densities differ by f(0,0)
        from slabflow.fourier import TorusGrid, random_band_limited
        from slabflow.surface_energy import energy

        class Shifted(dn.EnergyDensity):
            def __init__(self):
                self.base = dn.willmore()

            def value(self, p, M):
                return self.base.value(p, M) + 3.0

            def grad(self, p, M):
                return self.base.grad(p, M)

            def hess(self, p, M):
                return self.base.hess(p, M)

            def third(self, p, M):
                return self.base.third(p, M)

        raw = Shifted()
        norm = dn.normalize_density(raw, n=2)
        grid = TorusGrid(2, 16)
        for seed in range(3):
            eta = random_band_limited(grid, 4, 0.05, np.random.default_rng(seed))
            assert abs((energy(raw, eta) - energy(norm, eta)) - 3.0) < 1e-12


class TestDerivativeTensors:
    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_tensor_symmetry(self, f):
        rng = np.random.default_rng(7)
        p, M = random_jet(rng)
        p, M = p[None], M[None]
        fpp, fpM, fMM = f.hess(p, M)
        scale = max(np.max(np.abs(a)) for a in (fpp, fpM, fMM)) + 1e-30
        assert np.max(np.abs(fpp - np.swapaxes(fpp, -1, -2))) < 1e-12 * scale
        assert np.max(np.abs(fMM - np.einsum("...ijkl->...klij", fMM))) < 1e-12 * scale
        fppp, fppM, fpMM, fMMM = f.third(p, M)
        scale = max(np.max(np.abs(a)) for a in (fppp, fppM, fpMM)) + 1e-30
        assert np.max(np.abs(fppp - np.einsum("...klm->...lkm", fppp))) < 1e-12 * scale
        assert np.max(np.abs(fppp - np.einsum("...klm->...mlk", fppp))) < 1e-12 * scale
        assert np.max(np.abs(fppM - np.einsum("...klij->...lkij", fppM))) < 1e-12 * scale
        # p-M mixed partials agree between the two storage orders
        assert np.max(np.abs(fpM - np.einsum("...ijkl->...klij", fpM) * 0 - fpM)) == 0

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_gradient_matches_finite_differences(self, f):
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(3):
            p, M = random_jet(rng, scale=0.4)
            fp, fM = f.grad(p[None], M[None])
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = eps
                fd = (f.value((p + dp)[None], M[None])[0]
                      - f.value((p - dp)[None], M[None])[0]) / (2 * eps)
                assert abs(fd - fp[0][k]) < 2e-7 * max(1.0, abs(fd))
            for i in range(2):
                for j in range(2):
                    dM = np.zeros((2, 2))
                    dM[i, j] = eps
                    fd = (f.value(p[None], (M + dM)[None])[0]
                          - f.value(p[None], (M - dM)[None])[0]) / (2 * eps)
                    assert abs(fd - fM[0][i, j]) < 2e-7 * max(1.0, abs(fd))

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_hessian_matches_finite_differences(self, f):
        rng = np.random.default_rng(23)
        eps = 1e-5
        p, M = random_jet(rng, scale=0.3)
        fpp, fpM, fMM = f.hess(p[None], M[None])
        for l in range(2):
            dp = np.zeros(2)
            dp[l] = eps
            gp1, gM1 = f.grad((p + dp)[None], M[None])
            gp0, gM0 = f.grad((p - dp)[None], M[None])
            assert np.max(np.abs((gp1[0] - gp0[0]) / (2 * eps) - fpp[0][:, l])) < 5e-6
            assert np.max(np.abs((gM1[0] - gM0[0]) / (2 * eps) - fpM[0][l])) < 5e-6
        for i in range(2):
            for j in range(2):
                dM = np.zeros((2, 2))
                dM[i, j] = eps
                _, gM1 = f.grad(p[None], (M + dM)[None])
                _, gM0 = f.grad(p[None], (M - dM)[None])
                assert np.max(np.abs((gM1[0] - gM0[0]) / (2 * eps) - fMM[0][:, :, i, j])) < 5e-6

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.name)
    def test_third_matches_finite_differences(self, f):
        rng = np.random.default_rng(29)
        eps = 1e-5
        p, M = random_jet(rng, scale=0.3)
        fppp, fppM, fpMM, fMMM = f.third(p[None], M[None])
        for l in range(2):
            dp = np.zeros(2)
            dp[l] = eps
            a1 = f.hess((p + dp)[None], M[None])
            a0 = f.hess((p - dp)[None], M[None])
            assert np.max(np.abs((a1[0][0] - a0[0][0]) / (2 * eps) - fppp[0][:, :, l])) < 1e-5
            assert np.max(np.abs((a1[1][0] - a0[1][0]) / (2 * eps) - fppM[0][:, l])) < 1e-5
            assert np.max(np.abs((a1[2][0] - a0[2][0]) / (2 * eps) - fpMM[0][l])) < 1e-5
        # bending densities are quadratic in M: the pure-M third block vanishes
        assert np.max(np.abs(fMMM)) == 0.0


class TestFamilies:
    def test_anisotropic_reduces_to_scalar_bending(self):
        # C(p) = sqrt(m(p)) I reproduces the scalar family, derivatives included
        aniso = dn.anisotropic(m0=1.0, m1=1.0)
        scalar = dn.scalar_willmore(1.0, 1.0)
        rng = np.random.default_rng(31)
        for _ in range(5):
            p, M = random_jet(rng, scale=0.8)
            p, M = p[None], M[None]
            va, vs = aniso.value(p, M)[0], scalar.value(p, M)[0]
            assert abs(va - vs) <= 1e-12 * max(1.0, abs(vs))
            for a, b in zip(aniso.grad(p, M), scalar.grad(p, M)):
                assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))
            for a, b in zip(aniso.hess(p, M), scalar.hess(p, M)):
                assert np.max(np.abs(a - b)) <= 1e-11 * max(1.0, np.max(np.abs(b)))
            for a, b in zip(aniso.third(p, M), scalar.third(p, M)):
                assert np.max(np.abs(a - b)) <= 1e-11 * max(1.0, np.max(np.abs(b)))

    def test_no_singularity_at_large_slope(self):
        # (1 + |p|^2) never vanishes: all families stay finite up to |p| = 10
        rng = np.random.default_rng(37)
        for f in ALL_FAMILIES:
            p = np.array([[10.0, 0.0], [-7.0, 7.0]])
            M = rng.standard_normal((2, 2, 2))
            M = 0.5 * (M + np.swapaxes(M, -1, -2))
            for part in (f.value(p, M), *f.grad(p, M), *f.hess(p, M), *f.third(p, M)):
                assert np.all(np.isfinite(part))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            dn.scalar_willmore(0.0)
        with pytest.raises(ValueError):
            dn.combo(1.0, 0.0)
        with pytest.raises(ValueError):
            dn.anisotropic(C0=[[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError):
            dn.anisotropic(C0=[[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("f", [dn.area(1.0), dn.normalize_density(dn.area(1.0), 1)],
                             ids=["area", "normalized"])
    def test_scalar_slope_is_an_incompatible_jet(self, f):
        with pytest.raises(ValueError, match="incompatible jet shapes"):
            f.value(0.3, [[1.0]])
