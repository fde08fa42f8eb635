"""Every density is at most quadratic in the Hessian slot M.

The oracle never calls `third`: it perturbs M and asks `hess` whether its fMM
block moved.  Then `third`'s fMMM block, which the variations no longer
contract, must be the read-only zero it claims to be.  A density with a cubic
M term fails the oracle, so a future family of that kind cannot slip past.
"""

import numpy as np
import pytest

from slabflow import densities as dn

# every family a config can build, through the builder the config uses
PARAMS = [
    {"family": "area", "sigma": 1.3},
    {"family": "willmore"},
    {"family": "scalar-willmore", "m0": 1.0, "m1": 0.7},
    {"family": "anisotropic", "matrix": "C0"},
    {"family": "anisotropic", "m0": 1.5, "m1": 0.5},
    {"family": "combo", "alpha": -1.0, "beta": 0.5},
]
C0 = {1: [[2.0]], 2: [[2.0, 0.3], [0.3, 1.0]]}
IDS = ["area", "willmore", "scalar-willmore", "anisotropic-matrix", "anisotropic-m0-m1", "combo",
       "normalized-combo"]


def build(params: dict, n: int) -> dn.EnergyDensity:
    params = {k: C0[n] if v == "C0" else v for k, v in params.items()}
    return dn._build_from_params(params, n=n)


def families(n: int):
    out = [build(params, n) for params in PARAMS]
    return out + [dn.normalize_density(build(PARAMS[-1], n), n)]


def random_jets(rng, n: int, points: int = 7):
    p = rng.standard_normal((points, n))
    M = rng.standard_normal((points, n, n))
    return p, 0.5 * (M + np.swapaxes(M, -1, -2))


def fMM_drift(f: dn.EnergyDensity, n: int, seed: int) -> float:
    """Largest change of hess's fMM block under random symmetric shifts of M,
    relative to the block's size."""
    rng = np.random.default_rng(seed)
    p, M = random_jets(rng, n)
    fMM = f.hess(p, M)[2]
    drift = 0.0
    for _ in range(3):
        dM = random_jets(rng, n)[1]
        moved = f.hess(p, M + 2.0 * dM)[2]
        drift = max(drift, np.max(np.abs(moved - fMM)) / max(np.max(np.abs(fMM)), 1e-300))
    return float(drift)


def test_every_config_family_is_covered():
    # a family added to the config schema fails here until PARAMS exercises it
    assert {params["family"] for params in PARAMS} == set(dn.DENSITY_FAMILIES)
    assert {"matrix", "m0"} <= {key for params in PARAMS if params["family"] == "anisotropic"
                                for key in params}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_fMM_does_not_depend_on_M(n, index):
    f = families(n)[index]
    assert fMM_drift(f, n, seed=10 * index + n) <= 1e-13, f.name


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_third_hands_out_a_read_only_zero_fMMM(n, index):
    f = families(n)[index]
    p, M = random_jets(np.random.default_rng(index + 100 * n), n)
    *_, fMMM = f.third(p, M)
    assert fMMM.shape == (len(p),) + (n,) * 6
    assert not fMMM.flags.writeable
    assert not np.any(fMMM)


class CubicInM(dn.EnergyDensity):
    """f = (tr M)^3 / 6 + willmore: fMM = tr M I x I moves with M."""

    name = "cubic-in-M"

    def __init__(self):
        self.base = dn.willmore()

    def hess(self, p, M):
        fpp, fpM, fMM = self.base.hess(p, M)
        n = M.shape[-1]
        tr = np.trace(M, axis1=-2, axis2=-1)
        eye = np.eye(n)
        return fpp, fpM, fMM + tr[..., None, None, None, None] * np.multiply.outer(eye, eye)


@pytest.mark.parametrize("n", [1, 2])
def test_a_cubic_M_term_fails_the_oracle(n):
    assert fMM_drift(CubicInM(), n, seed=n) > 1e-3
