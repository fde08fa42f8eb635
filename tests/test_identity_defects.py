"""The energy identity of each resolved eigenpair.

An eigenpair (lambda, v) of the mode operator decays as exp(-lambda t), so
the semi-discrete identity d/dt E_eq = -D_eq reads 2 Re lambda E_eq(v) =
D_eq(v).  `Simulator.identity_defects` reports |2 Re lambda E_eq - D_eq| /
D_eq for every pair of the class solve.  The slow pairs hold it to 1e-10 at
M_v = 24; the stiff pairs are under-resolved and break it.  The horizontal
velocity splits into a transverse part (u_h normal to k, nothing else) and
a longitudinal part, and the two lose the identity at different |lambda|.
"""

import numpy as np
import pytest

from slabflow import densities as dn
from slabflow import simulate as sim
from slabflow.fourier import TorusGrid
from slabflow.geometry import FlattenedDomain

PHYSICS = {"area": (dn.area(1.0), 1.0), "combo": (dn.combo(-1.0, 0.042), -1.0)}
# pairs with a defect <= 1e-8, of the 44 resolved, at each wavevector
LOW_DEFECT_COUNT = {(1, 0): 10, (1, 1): 11}


@pytest.fixture(scope="module", params=sorted(PHYSICS))
def simulator(request):
    density, g = PHYSICS[request.param]
    dom = FlattenedDomain(b=1.0, horizontal=TorusGrid(2, 32), M_v=24)
    return sim.Simulator(density, g, dom)


def transverse(s, k, count):
    """Whether each seeded pair at k is transverse: u_h . k_hat, u_3 and eta vanish."""
    kh = np.array(k, dtype=float) / np.hypot(*k)
    out = []
    for i in range(count):
        u, _, eta = s.layout.blocks(s.eigenmode_data(k, 1.0, i).modes[k])
        out.append(max(np.max(np.abs(kh @ u[:2])), np.max(np.abs(u[2])), abs(eta)) <= 1e-8)
    return np.array(out)


@pytest.mark.parametrize("k", sorted(LOW_DEFECT_COUNT))
def test_slow_pairs_hold_the_identity(simulator, k):
    lam, defect = simulator.identity_defects(k)
    assert len(lam) == len(defect) == 44
    trans = transverse(simulator, k, len(lam))
    assert 0 < np.sum(trans) < len(lam)
    slow = np.where(trans, np.abs(lam) < 170.0, np.abs(lam) <= 114.0)
    assert np.sum(slow & trans) >= 1 and np.sum(slow & ~trans) >= 1
    assert np.max(defect[slow]) <= 1e-10
    assert np.sum(defect <= 1e-8) == LOW_DEFECT_COUNT[k]


def test_defects_are_those_of_the_class(simulator):
    # the rotated and mirrored members share the class solve, and E_eq, D_eq
    # depend on k only through |k|^2, so their defects agree to roundoff
    lam, defect = simulator.identity_defects((1, 0))
    for k in ((0, 1), (-1, 0), (0, -1)):
        lam_k, defect_k = simulator.identity_defects(k)
        assert np.array_equal(lam_k, lam)
        slow = defect <= 1e-8
        assert np.array_equal(defect_k <= 1e-8, slow)
        assert np.max(np.abs(defect_k[slow] - defect[slow])) <= 1e-10

