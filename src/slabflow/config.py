"""Strict JSON run configuration for the command-line tools.

Unknown keys are rejected with a dotted-path diagnostic so that runs are
reproducible from the config file alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import densities
from .densities import EnergyDensity

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Schema violation; message carries the offending path."""


def _take(d: dict, path: str, key: str, default=None, required=False):
    if key in d:
        return d.pop(key)
    if required:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return default


def _no_leftovers(d: dict, path: str):
    if d:
        raise ConfigError(f"{path}: unknown key(s) {sorted(d)}")


def _section(d: dict, path: str, default=None):
    """A copy of the object at `path`, whose last part is its key in d.

    An absent or null section gives `default`.
    """
    v = d.pop(path.rsplit(".", 1)[-1], None)
    if v is None:
        return default
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(v)


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    try:
        out = float(v)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path}: value must be finite")
    return out


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _as_complex(v, path: str) -> complex:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(_as_float(v, path))
    if isinstance(v, list) and len(v) == 2:
        return complex(_as_float(v[0], path), _as_float(v[1], path))
    raise ConfigError(f"{path}: expected a number or [re, im] pair")


def _as_square_matrix(v, path: str, n: int) -> list[list[float]]:
    """An n x n matrix of finite numbers, n the surface dimension grid.n."""
    if not (isinstance(v, list) and len(v) == n
            and all(isinstance(row, list) and len(row) == n for row in v)):
        raise ConfigError(f"{path}: expected a {n}x{n} matrix for grid.n = {n}, got {v!r}")
    return [[_as_float(x, path) for x in row] for row in v]


@dataclass(frozen=True)
class ModeEntry:
    k: tuple[int, ...]
    eta: complex = 0.0
    u: complex = 0.0


@dataclass(frozen=True)
class GridSection:
    n: int = 2
    N: int = 32
    M_v: int = 24


@dataclass(frozen=True)
class TimeSection:
    dt: float = 1e-3
    horizon: float = 5.0
    output_interval: int = 10
    scheme: str = "crank-nicolson"


@dataclass(frozen=True)
class FigureSection:
    profile: str = "both"
    window: float = 20.0
    blend_width: float = 2.0
    samples: int = 1024
    alpha: float = 1.0
    beta: float = 1.0
    displacement: float = 0.05


@dataclass(frozen=True)
class RunConfig:
    density_params: dict
    gravity: float = 0.0
    depth: float = 1.0
    grid: GridSection = field(default_factory=GridSection)
    time: TimeSection = field(default_factory=TimeSection)
    modes: tuple[ModeEntry, ...] = ()
    eigenmode: dict | None = None
    kmax: int = 4
    seed: int = 0
    figure: FigureSection = field(default_factory=FigureSection)
    variations_eta: tuple[ModeEntry, ...] = ()
    variations_phi: tuple[ModeEntry, ...] = ()

    def density(self) -> EnergyDensity:
        return densities._build_from_params(self.density_params, n=self.grid.n)


def _as_wavevector(raw, path: str, grid: GridSection) -> tuple[int, ...]:
    """Integer wavevector with grid.n components inside the band -N/2 < k_i <= N/2."""
    if isinstance(raw, int):
        raw = [raw]
    if not isinstance(raw, list) or len(raw) != grid.n:
        raise ConfigError(f"{path}: expected {grid.n} integer components")
    k = tuple(_as_int(c, path) for c in raw)
    if any(not (-grid.N // 2 < c <= grid.N // 2) for c in k):
        raise ConfigError(f"{path}: wavevector {list(k)} outside the grid band "
                          f"-{grid.N // 2} < k_i <= {grid.N // 2}")
    return k


def _parse_mode_list(raw, path: str, grid: GridSection) -> tuple[ModeEntry, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of mode entries")
    out = []
    for i, entry in enumerate(raw):
        p = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{p}: expected an object")
        entry = dict(entry)
        k = _as_wavevector(_take(entry, p, "k", required=True), f"{p}.k", grid)
        eta = _as_complex(_take(entry, p, "eta", 0.0), f"{p}.eta")
        u = _as_complex(_take(entry, p, "u", 0.0), f"{p}.u")
        _no_leftovers(entry, p)
        out.append(ModeEntry(k=k, eta=eta, u=u))
    return tuple(out)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    raw = dict(raw)

    dens = _take(raw, "top level", "density", required=True)
    if not isinstance(dens, dict):
        raise ConfigError("density: expected an object")
    dens = dict(dens)
    family = _take(dens, "density", "family", required=True)
    if not isinstance(family, str):
        raise ConfigError(f"density.family: expected a string, got {family!r}")
    if family not in densities.DENSITY_FAMILIES:
        raise ConfigError(
            f"density.family: unknown family {family!r}; "
            f"choose from {sorted(densities.DENSITY_FAMILIES)}"
        )
    allowed = densities.DENSITY_FAMILIES[family]
    for key in dens:
        if key not in allowed:
            raise ConfigError(f"density.{key}: not a parameter of family {family!r}")
    for key in set(dens) - {"matrix"}:
        dens[key] = _as_float(dens[key], f"density.{key}")
    density_params = {"family": family, **dens}

    gravity = _as_float(_take(raw, "top level", "gravity", 0.0), "gravity")
    depth = _as_float(_take(raw, "top level", "depth", 1.0), "depth")
    if depth <= 0:
        raise ConfigError("depth: must be positive")

    gsec = _section(raw, "grid", {})
    grid = GridSection(
        n=_as_int(_take(gsec, "grid", "n", 2), "grid.n"),
        N=_as_int(_take(gsec, "grid", "N", 32), "grid.N"),
        M_v=_as_int(_take(gsec, "grid", "M_v", 24), "grid.M_v"),
    )
    _no_leftovers(gsec, "grid")
    if grid.n not in (1, 2):
        raise ConfigError("grid.n: must be 1 or 2")
    if grid.N < 8 or grid.N % 2:
        raise ConfigError("grid.N: must be even and >= 8")
    if grid.M_v < 8:
        raise ConfigError("grid.M_v: must be >= 8")
    if "matrix" in density_params:
        density_params["matrix"] = _as_square_matrix(density_params["matrix"], "density.matrix",
                                                     grid.n)
    try:
        densities._build_from_params(density_params, n=grid.n)
    except KeyError as exc:
        raise ConfigError(f"density: family {family!r} needs parameter {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"density: {exc}") from None

    tsec = _section(raw, "time", {})
    time = TimeSection(
        dt=_as_float(_take(tsec, "time", "dt", 1e-3), "time.dt"),
        horizon=_as_float(_take(tsec, "time", "horizon", 5.0), "time.horizon"),
        output_interval=_as_int(_take(tsec, "time", "output_interval", 10), "time.output_interval"),
        scheme=_take(tsec, "time", "scheme", "crank-nicolson"),
    )
    _no_leftovers(tsec, "time")
    if time.dt <= 0:
        raise ConfigError("time.dt: must be positive")
    if time.horizon < time.dt:
        raise ConfigError("time.horizon: must be at least time.dt")
    steps = time.horizon / time.dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * round(steps):
        raise ConfigError("time.horizon: must be a whole number of time.dt steps")
    if time.output_interval < 1:
        raise ConfigError("time.output_interval: must be >= 1")
    if time.scheme not in ("crank-nicolson", "backward-euler"):
        raise ConfigError("time.scheme: must be 'crank-nicolson' or 'backward-euler'")

    idata = _section(raw, "initial_data", {})
    modes = _parse_mode_list(_take(idata, "initial_data", "modes", None), "initial_data.modes", grid)
    for i, m in enumerate(modes):
        if not any(m.k) and m.eta != 0:
            raise ConfigError(f"initial_data.modes[{i}].eta: must be 0 at k = 0 "
                              "(the elevation has zero average)")
    eig = _section(idata, "initial_data.eigenmode")
    if eig is not None:
        eig_parsed = {
            "k": _as_wavevector(_take(eig, "initial_data.eigenmode", "k", required=True),
                                "initial_data.eigenmode.k", grid),
            "amplitude": _as_float(
                _take(eig, "initial_data.eigenmode", "amplitude", 1e-4),
                "initial_data.eigenmode.amplitude"),
            "index": _as_int(_take(eig, "initial_data.eigenmode", "index", 0),
                             "initial_data.eigenmode.index"),
        }
        _no_leftovers(eig, "initial_data.eigenmode")
        if eig_parsed["index"] < 0:
            raise ConfigError("initial_data.eigenmode.index: must be >= 0")
        eig = eig_parsed
    _no_leftovers(idata, "initial_data")

    kmax = _as_int(_take(raw, "top level", "kmax", 4), "kmax")
    if kmax < 1:
        raise ConfigError("kmax: must be >= 1")
    seed = _as_int(_take(raw, "top level", "seed", 0), "seed")

    fsec = _section(raw, "figure", {})
    figure = FigureSection(
        profile=_take(fsec, "figure", "profile", "both"),
        window=_as_float(_take(fsec, "figure", "window", 20.0), "figure.window"),
        blend_width=_as_float(_take(fsec, "figure", "blend_width", 2.0), "figure.blend_width"),
        samples=_as_int(_take(fsec, "figure", "samples", 1024), "figure.samples"),
        alpha=_as_float(_take(fsec, "figure", "alpha", 1.0), "figure.alpha"),
        beta=_as_float(_take(fsec, "figure", "beta", 1.0), "figure.beta"),
        displacement=_as_float(_take(fsec, "figure", "displacement", 0.05), "figure.displacement"),
    )
    _no_leftovers(fsec, "figure")
    if figure.profile not in ("tanh", "gaussian", "both"):
        raise ConfigError("figure.profile: must be 'tanh', 'gaussian', or 'both'")
    if figure.samples < 8 or figure.samples % 2:
        raise ConfigError("figure.samples: must be even and >= 8")
    if figure.blend_width <= 0:
        raise ConfigError("figure.blend_width: must be positive")
    if figure.window <= 2 * figure.blend_width + 2:
        raise ConfigError("figure.window: too short for the blend region")

    vsec = _section(raw, "variations", {})
    var_eta = _parse_mode_list(_take(vsec, "variations", "eta_modes", None),
                               "variations.eta_modes", grid)
    var_phi = _parse_mode_list(_take(vsec, "variations", "phi_modes", None),
                               "variations.phi_modes", grid)
    _no_leftovers(vsec, "variations")

    _no_leftovers(raw, "top level")
    return RunConfig(
        density_params=density_params,
        gravity=gravity,
        depth=depth,
        grid=grid,
        time=time,
        modes=modes,
        eigenmode=eig,
        kmax=kmax,
        seed=seed,
        figure=figure,
        variations_eta=var_eta,
        variations_phi=var_phi,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    return parse_config(raw)
