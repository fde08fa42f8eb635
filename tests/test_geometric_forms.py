"""E_geo and D_geo against a dense reference, and the structured A-contraction.

The reference evaluates the geometric pair the long way: every multi-index
of parabolic order <= 2 as its own copy (both orders of each mixed
derivative), a complex inverse FFT per copy, `full_gradient` for the
gradients and a dense einsum with the full matrix A.  The bulk forms of a
record take one of two evaluators, the grid one (`geometric_forms`) or the
sums over wavevector pairs (`pair_forms`); both are checked against the
reference and against each other, and so is the choice between them.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import fourier
from slabflow import geometry as geo
from slabflow import simulate as sim
from slabflow import surface_energy as se
from slabflow.fourier import (SpectralField, TorusGrid, conjugacy_representatives,
                              random_band_limited)
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


def edge_state(n):
    """Mean flow, a generic mode and a mode one inside the Nyquist plane (|k_1| = N/2 - 1):
    three representatives, which take the pair path at n = 2.  At n = 1, on a grid of 64
    points, they are within the pair path's size bound, yet every n = 1 record takes the
    grid."""
    Nn = N if n == 2 else 64
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, Nn), M_v=M_V)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    zero = (0,) * n
    generic = (1, -2) if n == 2 else (3,)
    edge = (Nn // 2 - 1, -3) if n == 2 else (Nn // 2 - 1,)
    seeds = [sim.ModeSeed(zero, u=0.3),
             sim.ModeSeed(generic, eta=0.01 - 0.005j, u=0.4 + 0.2j),
             sim.ModeSeed(edge, eta=0.0015j, u=0.1)]
    return s, s.init_pressure(s.admissible_data(seeds))


@pytest.mark.parametrize("n, build", [pytest.param(1, nonflat_state, id="1"),
                                      pytest.param(2, nonflat_state, id="2"),
                                      pytest.param(1, dense_state, id="1-dense"),
                                      pytest.param(2, dense_state, id="2-dense"),
                                      pytest.param(1, edge_state, id="1-pairs"),
                                      pytest.param(2, edge_state, id="2-pairs")])
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


def spy_on_evaluators(monkeypatch) -> list:
    """Record the name of each bulk-form evaluator that `_geometric_pair` calls."""
    calls = []
    for name in ("geometric_forms", "pair_forms"):
        original = getattr(geo, name)

        def spy(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(geo, name, spy)
    return calls


def most_pairs(n, Nn):
    """The largest number of representatives P with (2P)^2 <= PAIR_FRACTION N^n."""
    P = 0
    while (2 * (P + 1)) ** 2 <= fourier.PAIR_FRACTION * Nn ** n:
        P += 1
    return P


def modes_state(n, Nn, keys, M_v=M_V):
    """Small random data on the representatives `keys`."""
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, Nn), M_v=M_v)
    s = sim.Simulator(dn.combo(-1.0, 0.042), -1.0, dom)
    rng = np.random.default_rng(len(keys))
    seeds = [sim.ModeSeed(k, eta=2e-4 * rng.standard_normal(), u=1e-2j) for k in keys]
    return s, s.init_pressure(s.admissible_data(seeds))


def trajectory_shape():
    """The trajectory benchmark's shape: 8 of the 40 representatives with |k|_inf <= 4
    on the 32^2 x 24 grid."""
    return modes_state(2, 32, conjugacy_representatives(4, 2)[::5], M_v=24)


def crossover_state(extra):
    """P representatives on the 16^2 grid, P the last count the pair path takes, plus `extra`."""
    return modes_state(2, N, conjugacy_representatives(N // 2 - 1, 2)[:most_pairs(2, N) + extra])


ROUTES = {
    "nyquist-1": (lambda: nonflat_state(1), "geometric_forms"),
    "nyquist-2": (lambda: nonflat_state(2), "geometric_forms"),
    "crossover": (lambda: crossover_state(0), "pair_forms"),
    "past-crossover": (lambda: crossover_state(1), "geometric_forms"),
    "dense": (lambda: dense_state(2), "geometric_forms"),
    "pairs-1": (lambda: edge_state(1), "geometric_forms"),
    "pairs-2": (lambda: edge_state(2), "pair_forms"),
    "trajectory": (trajectory_shape, "pair_forms"),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_geometric_pair_routes_by_size(name, monkeypatch):
    build, expect = ROUTES[name]
    s, state = build()
    calls = spy_on_evaluators(monkeypatch)
    s._geometric_pair(state)
    assert calls == [expect]


def grid_copies(dom, keys, groups):
    """The copies of `pair_forms`' groups sampled by a full complex inverse FFT per copy,
    (copies, n+1, *grid, M_v), and their gradients from `full_gradient`,
    (n+1, copies, n+1, *grid, M_v)."""
    grid = dom.horizontal
    n = grid.n
    v = []
    for phi, u in groups:
        for a in range(phi.shape[1]):
            c = scatter(grid, {k: phi[p, a] * u[p] for p, k in enumerate(keys)}, u.shape[1:])
            c = np.moveaxis(c, tuple(range(n)), tuple(range(1, n + 1)))
            v.append(np.fft.ifftn(c, axes=tuple(range(1, n + 1))).real * grid.npoints)
    grad = [geo.full_gradient(BulkField(dom, x)).values for x in v]
    return np.array(v), np.stack(grad, axis=1)


@pytest.mark.parametrize("n", [1, 2])
def test_pair_forms_match_grid_forms(n):
    """`pair_forms` against `geometric_forms` on the same coefficients, for P from 1 to
    one past the crossover: random profiles in a 6-copy and a 1-copy group (factors
    real at k = 0), on representatives that include k = 0 and |k_1| = N/2 - 1."""
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(n, N), M_v=M_V)
    grid = dom.horizontal
    rng = np.random.default_rng(41 + n)
    reps = conjugacy_representatives(N // 2 - 1, n)
    edge = [k for k in reps if abs(k[0]) == N // 2 - 1]
    pool = [k for k in reps if k not in edge]
    for P in range(1, most_pairs(n, N) + 2):
        picks = rng.choice(len(pool), P, replace=False)
        keys = ([(0,) * n] + [edge[0]] + [pool[i] for i in picks])[:P]
        kk = np.array(keys)
        mean = ~np.any(kk, axis=1)

        def amp(*shape, scale=1.0):
            z = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            z[mean] = z[mean].real
            return z

        eta = amp(P, scale=2e-3 / P)
        groups = [(amp(P, 6), amp(P, n + 1, M_V)), (amp(P, 1), amp(P, n + 1, M_V))]
        gc = geo.geometric_coefficients(
            SpectralField(grid, scatter(grid, dict(zip(keys, eta)), ())), dom)
        kinetic, dissipation = geo.pair_forms(gc, kk, eta, groups)
        v, grad = grid_copies(dom, keys, groups)
        kin_ref, dis_ref = geo.geometric_forms(gc, v, grad)
        assert abs(kinetic - kin_ref) <= 1e-13 * abs(kin_ref), P
        assert abs(dissipation - dis_ref) <= 1e-13 * abs(dis_ref), P


def test_pair_forms_reject_nyquist_and_out_of_band_wavevectors():
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, N), M_v=M_V)
    gc = geo.geometric_coefficients(SpectralField.zero(dom.horizontal), dom)
    groups = [(np.ones((1, 1)), np.ones((1, 3, M_V)))]
    with pytest.raises(ValueError, match="Nyquist"):
        geo.pair_forms(gc, np.array([[N // 2, 1]]), np.zeros(1), groups)
    with pytest.raises(ValueError, match="outside retained band"):
        geo.pair_forms(gc, np.array([[N // 2 + 1, 1]]), np.zeros(1), groups)
