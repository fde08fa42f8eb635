"""E_geo and D_geo against a dense reference, and the structured A-contraction.

The reference evaluates the geometric pair the long way: every multi-index
of parabolic order <= 2 as its own copy (both orders of each mixed
derivative), a complex inverse FFT per copy, `full_gradient` for the
gradients and a dense einsum with the full matrix A.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import geometry as geo
from slabflow import simulate as sim
from slabflow import surface_energy as se
from slabflow.fourier import SpectralField, TorusGrid, random_band_limited
from slabflow.geometry import BulkField, FlattenedDomain

N, M_V = 16, 12


def unit(i, n):
    return tuple(int(a == i) for a in range(n))


def all_copies(n):
    """(time order, horizontal orders) for 1, d_t, d_i and d_i d_j over all ordered pairs."""
    zero = (0,) * n
    out = [(0, zero), (1, zero)] + [(0, unit(i, n)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            out.append((0, tuple(a + b for a, b in zip(unit(i, n), unit(j, n)))))
    return out


def scatter(grid, modes, tail):
    """Hermitian coefficients, shape grid.shape + tail, from {k: amplitude of shape tail}."""
    c = np.zeros(grid.shape + tail, dtype=complex)
    for k, a in modes.items():
        idx = tuple(ki % grid.N for ki in k)
        conj = tuple(-ki % grid.N for ki in k)
        if idx == conj:
            c[idx] += np.real(a)
        else:
            c[idx] += a
            c[conj] += np.conj(a)
    return c


def dense_forms(gc, v):
    """1/2 int |v|^2 J and 1/2 int |A grad v + (A grad v)^T|^2 J, dense A."""
    J = gc.J.values
    G = geo.full_gradient(v).values
    GA = np.einsum("ik...,kj...->ij...", gc.A.values, G)
    sym = GA + np.swapaxes(GA, 0, 1)
    kinetic = 0.5 * geo.bulk_integral(BulkField(v.dom, np.sum(v.values**2, axis=0) * J))
    dissipation = 0.5 * geo.bulk_integral(BulkField(v.dom, np.sum(sym**2, axis=(0, 1)) * J))
    return kinetic, dissipation


def reference_geometric_pair(s, state):
    dom = s.dom
    n, M_v, grid = dom.n, dom.M_v, dom.horizontal
    eta = state.eta()
    gc = geo.geometric_coefficients(eta, dom)
    E = se.energy(s.density, eta) + 0.5 * s.g * float(np.mean(eta.samples() ** 2))
    Dd = 0.0
    for at, ah in all_copies(n):
        vel, surf = {}, {}
        for k, x in state.modes.items():
            dx = s.op(k).pde_time_derivative(x)
            y = dx if at else x
            kappa = 2.0 * np.pi * np.asarray(k, dtype=float)
            m = np.prod((1j * kappa) ** np.asarray(ah, dtype=float))
            vel[k] = m * y[:(n + 1) * M_v].reshape(n + 1, M_v)
            e = 0.0 if at and not any(k) else y[(n + 2) * M_v]  # frozen surface average
            surf[k] = m * e
        c = np.moveaxis(scatter(grid, vel, (n + 1, M_v)), n, 0)
        v = BulkField(dom, np.fft.ifftn(c, axes=tuple(range(1, 1 + n))).real * grid.npoints)
        kin, dis = dense_forms(gc, v)
        E += kin
        Dd += dis
        if at == 0 and not any(ah):
            continue
        zeta = SpectralField(grid, scatter(grid, surf, ()))
        E += se.quad_energy(s.density, eta, zeta) + 0.5 * s.g * float(np.mean(zeta.samples() ** 2))
    return E, Dd


def nonflat_state(n):
    """Mean flow at k = 0, a generic mode and a Nyquist mode (k_1 = N/2)."""
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    zero = (0,) * n
    generic = (1, -2) if n == 2 else (3,)
    nyquist = (N // 2, 1) if n == 2 else (N // 2,)
    seeds = [sim.ModeSeed(zero, u=0.3),
             sim.ModeSeed(generic, eta=0.01 - 0.005j, u=0.4 + 0.2j),
             sim.ModeSeed(nyquist, eta=0.0015j, u=0.1)]
    return s, s.init_pressure(s.admissible_data(seeds))


def dense_state(n, kmax=6):
    """Every representative with |k|_inf <= kmax excited, small random amplitudes."""
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    rng = np.random.default_rng(23 + n)
    reps = [tuple(c - kmax for c in k) for k in np.ndindex(*[2 * kmax + 1] * n)]
    reps = [k for k in reps if k > tuple(-c for c in k)]

    def amp(scale):
        return scale * (rng.standard_normal() + 1j * rng.standard_normal())

    seeds = [sim.ModeSeed(k, eta=amp(2e-4), u=amp(1e-2)) for k in reps]
    return s, s.init_pressure(s.admissible_data(seeds))


@pytest.mark.parametrize("n, build", [pytest.param(1, nonflat_state, id="1"),
                                      pytest.param(2, nonflat_state, id="2"),
                                      pytest.param(1, dense_state, id="1-dense"),
                                      pytest.param(2, dense_state, id="2-dense")])
def test_geometric_pair_matches_dense_reference(n, build):
    s, state = build(n)
    rec = s.functionals(state)
    E_ref, D_ref = reference_geometric_pair(s, state)
    assert abs(rec["E_geo"] - E_ref) <= 1e-12 * abs(E_ref)
    assert abs(rec["D_geo"] - D_ref) <= 1e-12 * abs(D_ref)
    # the state is far enough from flat that the geometric pair differs
    assert abs(rec["D_geo"] - rec["D_eq"]) > 1e-6 * rec["D_eq"]


@pytest.mark.parametrize("n", [1, 2])
def test_structured_contraction_matches_dense_einsum(n):
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    rng = np.random.default_rng(5 + n)
    eta = random_band_limited(dom.horizontal, 1, 0.1, rng)
    gc = geo.geometric_coefficients(eta, dom)
    nc, copies = dom.ncomp, 3
    shape = dom.horizontal.shape + (M_V,)
    v = rng.standard_normal((copies, nc) + shape)
    grad = rng.standard_normal((nc, copies, nc) + shape)   # grad[i][c, j] stands for d_i v[c, j]
    kinetic, dissipation = geo.geometric_forms(gc, v, grad)

    J, A = gc.J.values, gc.A.values
    kin_ref = dis_ref = 0.0
    for c in range(copies):
        GA = np.einsum("ik...,kj...->ij...", A, grad[:, c])
        sym = GA + np.swapaxes(GA, 0, 1)
        kin_ref += 0.5 * geo.bulk_integral(BulkField(dom, np.sum(v[c] ** 2, axis=0) * J))
        dis_ref += 0.5 * geo.bulk_integral(BulkField(dom, np.sum(sym**2, axis=(0, 1)) * J))
    assert abs(kinetic - kin_ref) <= 1e-13 * kin_ref
    assert abs(dissipation - dis_ref) <= 1e-13 * dis_ref
