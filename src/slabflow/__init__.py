"""Spectral laboratory for a viscous fluid slab with a bending/tension surface.

Modules:
    fourier         spectral fields on the torus (transforms, norms, dealiasing)
    densities       surface energy densities f(p, M) with exact derivative tensors
    surface_energy  W(eta), its variations, flat-state symbol, ellipticity, Taylor splits
    geometry        flattening map, harmonic extension, A-operators, integral identities
    stability       per-wavevector eigenproblems and decay rates
    simulate        implicit time stepping and the energy/dissipation functionals
    profiles        force curves along one-dimensional windowed surface shapes
    cli             command-line front end
"""

from .densities import (
    EnergyDensity,
    anisotropic,
    area,
    combo,
    normalize_density,
    scalar_willmore,
    willmore,
)
from .fourier import SpectralField, TorusGrid, dealiased_product, random_band_limited
from .geometry import BulkField, DomainDegenerate, FlattenedDomain
from .simulate import FlattenedState, ModeSeed, SimulationSettings, Simulator, measure_decay_rate
from .stability import ModeOperator, Spectrum, assemble_mode, global_decay_rate, solve_spectrum
from .surface_energy import (
    Jet,
    ellipticity_check,
    energy,
    first_variation,
    hessian_symbol,
    quad_energy,
    second_variation_apply,
    taylor_split,
    third_variation_apply,
)

__version__ = "0.1.0"


def _keep_freed_heap():
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB for the process, so the few MB
    that every record or surface variation frees and allocates again stay on the heap
    instead of being faulted in afresh.  Without glibc's `mallopt` nothing changes."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()
