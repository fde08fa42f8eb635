"""The Hermitian mode scatter and the state fields materialised through it.

The reference for every materialised field is a direct sum over the mode
vectors at the grid nodes, with no FFT: a self-conjugate wavevector k
(2k = 0 mod N, e.g. k = 0) contributes Re(v_k) e^{2 pi i k.x}, every other
representative 2 Re(v_k e^{2 pi i k.x}).
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow.fourier import SpectralField, TorusGrid, hermitian_scatter, mode_samples
from slabflow.geometry import FlattenedDomain

N, M_V = 8, 9


def direct_sum(grid, modes, block):
    """Sum over modes of the real field carried by x[block], at the grid nodes."""
    x = grid.nodes()
    out = 0.0
    for k, vec in modes.items():
        prof = np.asarray(vec[block])
        phase = np.exp(2j * np.pi * sum(ki * xi for ki, xi in zip(k, x)))
        if all((2 * ki) % grid.N == 0 for ki in k):  # self-conjugate: phase is real at nodes
            out = out + np.multiply.outer(phase.real, prof.real)
        else:
            out = out + 2.0 * np.multiply.outer(phase, prof).real
    return out


def state_with_mean_generic_and_nyquist(n):
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    rng = np.random.default_rng(11)
    size = (n + 2) * M_V + 1

    def vec():
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    zero = (0,) * n
    mean = np.zeros(size, dtype=complex)
    mean[:n * M_V] = rng.standard_normal(n * M_V)  # horizontal mean flow only
    generic = (1, -2) if n == 2 else (3,)
    nyquist = (N // 2, 1) if n == 2 else (N // 2,)
    return sim.FlattenedState(dom, {zero: mean, generic: vec(), nyquist: vec()})


def edge_state(n, kind):
    """A non-canonical key alone, both members of a pair +-k, or no mode at all."""
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    rng = np.random.default_rng(17)
    size = (n + 2) * M_V + 1

    def vec():
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    k = (-1, 2) if n == 2 else (-3,)  # the representative is -k
    keys = {"non-canonical": [k], "plus-minus": [k, tuple(-c for c in k)], "empty": []}[kind]
    return sim.FlattenedState(dom, {key: vec() for key in keys})


def make_state(n, kind):
    if kind == "mean-generic-nyquist":
        return state_with_mean_generic_and_nyquist(n)
    return edge_state(n, kind)


STATES = ([pytest.param(n, "mean-generic-nyquist", id=str(n)) for n in (1, 2)]
          + [pytest.param(n, kind, id=f"{n}-{kind}") for kind in
             ("non-canonical", "plus-minus", "empty") for n in (1, 2)])


@pytest.mark.parametrize("n, kind", STATES)
class TestMaterialisedFields:
    def test_eta_matches_direct_sum(self, n, kind):
        state = make_state(n, kind)
        grid = state.dom.horizontal
        expect = direct_sum(grid, state.modes, (n + 2) * M_V)
        assert np.max(np.abs(state.eta().samples() - expect)) <= 1e-13

    def test_velocity_matches_direct_sum(self, n, kind):
        state = make_state(n, kind)
        grid = state.dom.horizontal
        vel = state.velocity().values
        assert vel.shape == (n + 1,) + grid.shape + (M_V,)
        for j in range(n + 1):
            expect = direct_sum(grid, state.modes, slice(j * M_V, (j + 1) * M_V))
            assert np.max(np.abs(vel[j] - expect)) <= 1e-13

    def test_pressure_matches_direct_sum(self, n, kind):
        state = make_state(n, kind)
        grid = state.dom.horizontal
        expect = direct_sum(grid, state.modes, slice((n + 1) * M_V, (n + 2) * M_V))
        pres = state.pressure().values
        assert pres.shape == grid.shape + (M_V,)
        assert np.max(np.abs(pres - expect)) <= 1e-13


class TestModeSamples:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_inverse_transform_of_scatter(self, n, seed):
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(seed)
        ks = {tuple(int(c) for c in rng.integers(-N // 2 + 1, N // 2 + 1, size=n))
              for _ in range(6)}
        ks |= {(0,) * n, (N // 2,) * n}  # self-conjugate
        modes = {k: rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for k in ks}
        c = hermitian_scatter(grid, modes, (2, 3))
        expect = np.fft.ifftn(c, axes=tuple(range(n))).real * grid.npoints
        got = mode_samples(grid, modes, (2,), (3,))
        assert got.shape == (2,) + grid.shape + (3,)
        assert np.max(np.abs(np.moveaxis(got, 0, n) - expect)) <= 1e-13

    def test_scalar_amplitudes_and_empty_set(self):
        grid = TorusGrid(2, N)
        modes = {(1, -2): 0.3 - 0.4j, (N // 2, 0): 0.5 + 2.0j}
        expect = SpectralField.from_modes(grid, modes).samples()
        assert np.max(np.abs(mode_samples(grid, modes) - expect)) <= 1e-14
        assert np.array_equal(mode_samples(grid, {}, (2,), (3,)), np.zeros((2, N, N, 3)))

    @pytest.mark.parametrize("k", [(N // 2 + 1, 0), (-N // 2, 0), (0, 9)])
    def test_out_of_band_wavevector_raises(self, k):
        with pytest.raises(ValueError, match="outside retained band"):
            mode_samples(TorusGrid(2, N), {k: 1.0})


class TestHermitianScatter:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_representatives_give_hermitian_coefficients(self, seed):
        grid = TorusGrid(2, N)
        rng = np.random.default_rng(seed)
        ks = {tuple(int(c) for c in rng.integers(-N // 2 + 1, N // 2 + 1, size=2))
              for _ in range(12)}
        ks |= {(0, 0), (N // 2, 0), (0, N // 2), (N // 2, N // 2)}  # self-conjugate
        modes = {k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in ks}
        c = hermitian_scatter(grid, modes, (3,))
        assert c.shape == grid.shape + (3,)
        for j in range(3):
            assert SpectralField(grid, c[..., j]).is_hermitian()
        scalar = {k: a[0] for k, a in modes.items()}
        assert SpectralField(grid, hermitian_scatter(grid, scalar)).is_hermitian()
        assert np.array_equal(hermitian_scatter(grid, scalar), c[..., 0])

    def test_self_conjugate_mode_keeps_real_part(self):
        grid = TorusGrid(1, N)
        c = hermitian_scatter(grid, {(N // 2,): 0.3 + 0.7j, (0,): 0.2 - 0.1j})
        assert c[N // 2] == 0.3 and c[0] == 0.2

    @pytest.mark.parametrize("k", [(N // 2 + 1, 0), (-N // 2, 0), (0, 9)])
    def test_out_of_band_wavevector_raises(self, k):
        grid = TorusGrid(2, N)
        with pytest.raises(ValueError, match="outside retained band"):
            hermitian_scatter(grid, {k: 1.0})
        with pytest.raises(ValueError, match="outside retained band"):
            SpectralField.from_modes(grid, {k: 1.0})


class TestOutOfBandStates:
    @pytest.fixture
    def simulator(self):
        dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 16), M_v=12)
        return sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)

    def test_eigenmode_data_raises_at_construction(self, simulator):
        with pytest.raises(ValueError, match="outside retained band"):
            simulator.eigenmode_data((9, 0), 1e-4)

    def test_admissible_data_raises(self, simulator):
        with pytest.raises(ValueError, match="outside retained band"):
            simulator.admissible_data([sim.ModeSeed((9, 0), eta=1e-3, u=1e-3)])

    def test_hand_built_state_raises_instead_of_aliasing(self, simulator):
        dom = simulator.dom
        x = np.zeros((dom.n + 2) * dom.M_v + 1, dtype=complex)
        x[-1] = 1e-4
        state = sim.FlattenedState(dom, {(9, 0): x})
        with pytest.raises(ValueError, match="outside retained band"):
            state.eta()
        with pytest.raises(ValueError, match="outside retained band"):
            simulator.functionals(state)

    def test_band_edge_is_accepted(self, simulator):
        dom = simulator.dom
        x = np.zeros((dom.n + 2) * dom.M_v + 1, dtype=complex)
        x[-1] = 1e-4 + 2e-4j
        state = sim.FlattenedState(dom, {(8, -7): x})
        assert state.eta().is_hermitian()
        assert abs(state.eta().sobolev_norm(0.0) - np.sqrt(2.0) * abs(x[-1])) <= 1e-18
