"""The flattening map against a dense reference built in this file.

Every derived field is extended on its own with a complex inverse FFT of
eta_k exp(2 pi |k| x3); the first-derivative symbol 2 pi i k drops the
Nyquist slot.  The library builds all of them from one stacked
half-spectrum transform and derives Phi, grad Phi and the normals on
demand, so the two must agree to roundoff.
"""

import numpy as np
import pytest

from slabflow import geometry as geo
from slabflow.fourier import SpectralField, TorusGrid

TOL = 1e-13

# non-flat surfaces with a Nyquist mode (k_1 = N/2) next to generic ones
CASES = {
    1: {(1,): 0.01, (3,): 0.004j, (8,): 0.002},
    2: {(1, 0): 0.01, (2, -1): 0.004 + 0.002j, (0, 3): -0.001j, (8, 1): 0.002, (8, 0): 0.001},
}


def reference(eta, dom):
    """E eta, E sqrt(-lap) eta and E d_i eta, each by its own complex ifftn."""
    n, N = dom.n, dom.horizontal.N
    k1 = np.fft.fftfreq(N, 1.0 / N)
    k = np.stack(np.meshgrid(*([k1] * n), indexing="ij"))
    kabs = 2.0 * np.pi * np.sqrt(np.sum(k**2, axis=0))
    axes = tuple(range(n))

    def extend(c):
        prof = c[..., None] * np.exp(kabs[..., None] * dom.x3)
        return np.fft.ifftn(prof, axes=axes).real * N**n

    deriv = [np.where(np.abs(k[i]) == N // 2, 0.0, 2j * np.pi * k[i]) for i in range(n)]
    c = eta.coeffs
    return extend(c), extend(kabs * c), [extend(d * c) for d in deriv]


def expected_map(eta, dom):
    n = dom.n
    E, Es, Ed = reference(eta, dom)
    chi = dom.chi
    grad = np.stack([chi * e for e in Ed] + [E / dom.b + chi * Es])
    J = 1.0 + grad[n]
    A = np.zeros((n + 1, n + 1) + J.shape)
    gP = np.zeros_like(A)
    for i in range(n + 1):
        A[i, i] = gP[i, i] = 1.0
        A[i, n] -= grad[i] / J
        gP[n, i] += grad[i]
    x = dom.horizontal.nodes()
    Phi = np.stack([np.broadcast_to(x[i][..., None], J.shape) for i in range(n)]
                   + [dom.x3 + chi * E])
    nu = np.stack([-e[..., 0] for e in Ed] + [np.ones(dom.horizontal.shape)])
    return {"E": E, "J": J, "A": A, "grad_Phi": gP, "Phi": Phi,
            "grad_chi_ext": grad, "nu_top": nu}


@pytest.fixture(params=[1, 2], ids=["n1", "n2"])
def surface(request):
    n = request.param
    dom = geo.FlattenedDomain(b=0.8, horizontal=TorusGrid(n, 16), M_v=16)
    return SpectralField.from_modes(dom.horizontal, CASES[n]), dom


def test_surface_is_not_flat_and_carries_a_nyquist_mode(surface):
    eta, dom = surface
    N = dom.horizontal.N
    assert np.max(np.abs(eta.samples())) > 1e-3
    assert abs(eta.coeffs[(N // 2,) + (0,) * (dom.n - 1)]) > 0.0


def test_harmonic_extension_matches_reference(surface):
    eta, dom = surface
    E, _, _ = reference(eta, dom)
    assert np.max(np.abs(geo.harmonic_extension(eta, dom).values - E)) <= TOL


@pytest.mark.parametrize("name", ["J", "A", "grad_Phi", "Phi", "grad_chi_ext"])
def test_bulk_fields_match_reference(surface, name):
    eta, dom = surface
    gc = geo.geometric_coefficients(eta, dom)
    got = getattr(gc, name).values
    want = expected_map(eta, dom)[name]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


def test_top_normal_matches_reference(surface):
    eta, dom = surface
    gc = geo.geometric_coefficients(eta, dom)
    want = expected_map(eta, dom)["nu_top"]
    assert gc.nu_top.shape == want.shape
    assert np.max(np.abs(gc.nu_top - want)) <= TOL


def test_top_normal_is_minus_the_surface_gradient(surface):
    eta, dom = surface
    n = dom.n
    gc = geo.geometric_coefficients(eta, dom)
    for i in range(n):
        d = eta.derivative(tuple(int(a == i) for a in range(n))).samples()
        assert np.max(np.abs(gc.nu_top[i] + d)) <= TOL
    assert np.all(gc.nu_top[n] == 1.0)
    assert np.array_equal(gc.nu_bot, np.append(np.zeros(n), -1.0))
    assert gc.min_j == float(np.min(gc.J.values))
