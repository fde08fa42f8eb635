"""Command-line interface.

Subcommands: variations | figure-forces | ellipticity | dispersion |
simulate | geometry-check | validate.  Exit codes: 0 success, 2 config
error, 3 ellipticity failure, 4 numeric failure.  All CSV output is
comma-separated with a header row, 17-significant-digit floats, and LF
line endings; identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import densities as dn
from . import geometry as geo
from . import profiles as pf
from . import simulate as sim
from . import stability as st
from . import surface_energy as se
from .config import ConfigError, RunConfig, load_config
from .fourier import SpectralField, TorusGrid, random_band_limited
from .geometry import DomainDegenerate, FlattenedDomain
from .stability import NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ELLIPTICITY = 3
EXIT_NUMERIC = 4


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _field_from_modes(cfg_modes, grid: TorusGrid, pick="eta") -> SpectralField:
    modes = {}
    for entry in cfg_modes:
        amp = entry.eta if pick == "eta" else entry.u
        if amp != 0:
            modes[entry.k] = modes.get(entry.k, 0) + amp
    return SpectralField.from_modes(grid, modes)


def _domain(cfg: RunConfig) -> FlattenedDomain:
    return FlattenedDomain(b=cfg.depth, horizontal=TorusGrid(cfg.grid.n, cfg.grid.N),
                           M_v=cfg.grid.M_v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_variations(cfg: RunConfig, out: str) -> int:
    density = cfg.density()
    grid = TorusGrid(cfg.grid.n, cfg.grid.N)
    eta = _field_from_modes(cfg.variations_eta or cfg.modes, grid)
    phi = _field_from_modes(cfg.variations_phi, grid)
    if not np.any(np.abs(phi.coeffs)):
        phi = random_band_limited(grid, max(1, grid.N // 8), 0.05,
                                  np.random.default_rng(cfg.seed))
    dw = se.first_variation(density, eta)
    d2w = se.second_variation_apply(density, eta, phi)

    coords = grid.nodes()
    header = [f"x{i+1}" for i in range(grid.n)] + ["eta", "delta_w", "delta2_w_phi"]
    flat = [coords[i].ravel() for i in range(grid.n)]
    rows = zip(*flat, eta.samples().ravel(), dw.samples().ravel(), d2w.samples().ravel())
    _write(os.path.join(out, "variations.csv"), _csv(header, rows))

    # finite-difference validation report
    W = lambda e: se.energy(density, e)
    pair1 = dw.l2_inner(phi)
    eps_list = [1e-3 / 2**i for i in range(7)]
    rows1 = []
    for eps in eps_list:
        fd = (W(eta + eps * phi) - W(eta - eps * phi)) / (2 * eps)
        rows1.append((eps, abs(fd - pair1)))
    errs = np.array([r[1] for r in rows1])
    good = errs > 1e-14 * max(1.0, abs(pair1))
    slope1 = float("nan")
    if good.sum() >= 3:
        le, lr = np.log([r[0] for r in rows1]), np.log(errs)
        slope1 = float(np.polyfit(le[good], lr[good], 1)[0])
    fd4 = (W(eta + 1e-4 * phi) - W(eta - 1e-4 * phi)) / 2e-4
    mismatch = abs(fd4 - pair1) / max(abs(pair1), 1e-300)
    report = ["quantity,value",
              f"pairing_first_variation,{_fmt(pair1)}",
              f"fd_slope_first_variation,{_fmt(slope1)}",
              f"relative_mismatch_eps_1e-4,{_fmt(mismatch)}"]
    for eps, err in rows1:
        report.append(f"fd_error_eps_{eps:g},{_fmt(err)}")
    _write(os.path.join(out, "variations_report.csv"), "\n".join(report) + "\n")
    print(f"variations: wrote variations.csv ({grid.N}^{grid.n} samples), "
          f"fd slope {slope1:.3f}, mismatch @1e-4 {mismatch:.2e}")
    return EXIT_OK


def cmd_figure_forces(cfg: RunConfig, out: str) -> int:
    if cfg.grid.n != 1:
        print("figure-forces requires a one-dimensional surface (grid.n = 1)",
              file=sys.stderr)
        return EXIT_CONFIG
    fig = cfg.figure
    win = pf.LineWindow(fig.window, fig.samples, fig.blend_width)
    shapes = ["tanh", "gaussian"] if fig.profile == "both" else [fig.profile]
    header = ["x", "eta", "area_curvature", "willmore_force", "combined_force",
              "disp_x", "disp_y"]
    note = (
        "# force profiles on a periodized window of length {L}\n"
        "# profile blended to a constant by a cosine ramp of width {w} ending at |x| = L/2 - 1\n"
        "# area_curvature: H = eta''/(1+eta'^2)^(3/2); the area force is -H\n"
        "# willmore_force: first variation of (1/2) int H^2 ds (shape-normalized bending force)\n"
        "# combined_force = alpha * area_curvature + beta * willmore_force, "
        "alpha={a}, beta={b}\n"
        "# displaced profile: (x, eta) + displacement * combined_force * (eta', -1)/sqrt(1+eta'^2), "
        "displacement={d}\n"
    ).format(L=fig.window, w=fig.blend_width, a=fig.alpha, b=fig.beta, d=fig.displacement)
    for shape in shapes:
        cols = pf.force_columns(win, shape, fig.alpha, fig.beta, fig.displacement)
        rows = zip(*(cols[h] for h in header))
        _write(os.path.join(out, f"forces_{shape}.csv"), note + _csv(header, rows))
        print(f"figure-forces: wrote forces_{shape}.csv "
              f"(peak curvature {cols['area_curvature'][np.argmax(np.abs(cols['eta']))]:+.3f})")
    return EXIT_OK


def cmd_ellipticity(cfg: RunConfig, out: str) -> int:
    density = cfg.density()
    result = se.ellipticity_check(density, cfg.gravity, cfg.kmax, n=cfg.grid.n)
    print(f"density: {density.name}, gravity: {cfg.gravity}")
    print(f"min symbol ratio sigma(k)/|2 pi k|^4 over 0 < |k|_inf <= {cfg.kmax}: "
          f"{result.min_ratio:.6e}")
    print(f"argmin k: {result.argmin_k}")
    print(f"strictly elliptic: {result.verdict}")
    return EXIT_OK if result.verdict else EXIT_ELLIPTICITY


def cmd_dispersion(cfg: RunConfig, out: str, threads: int) -> int:
    density = cfg.density()
    n = cfg.grid.n
    modes, eigs = st.mode_sweep(density, cfg.gravity, cfg.depth, cfg.kmax, cfg.grid.M_v,
                                n, threads)
    rows = []
    for kt, w in zip(modes, eigs):
        lam2 = w[1] if w.size > 1 else complex("nan")
        rows.append((kt[0], kt[1] if n == 2 else 0, w[0].real, lam2.real, lam2.imag))
    _write(os.path.join(out, "dispersion.csv"),
           _csv(["kx", "ky", "lambda_min", "re_lambda_2", "im_lambda_2"], rows))
    slowest = min(r[2] for r in rows)
    print(f"dispersion: wrote dispersion.csv ({len(rows)} rows), slowest rate {slowest:.6f}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: str) -> int:
    density = cfg.density()
    dom = _domain(cfg)
    simulator = sim.Simulator(density, cfg.gravity, dom)
    ell = se.ellipticity_check(density, cfg.gravity, cfg.kmax, n=cfg.grid.n)
    if not ell.verdict:
        print(f"warning: configuration is not elliptic (min ratio {ell.min_ratio:.3e}); "
              "simulation may grow", file=sys.stderr)
    if cfg.eigenmode is not None:
        try:
            state = simulator.eigenmode_data(cfg.eigenmode["k"], cfg.eigenmode["amplitude"],
                                             cfg.eigenmode["index"])
        except ValueError as exc:
            raise ConfigError(f"initial_data.eigenmode: {exc}") from exc
    else:
        seeds = [sim.ModeSeed(m.k, m.eta, m.u) for m in cfg.modes]
        state = simulator.admissible_data(seeds)
        state = simulator.init_pressure(state)
    settings = sim.SimulationSettings(dt=cfg.time.dt, horizon=cfg.time.horizon,
                                      output_interval=cfg.time.output_interval,
                                      scheme=cfg.time.scheme)
    trace, final = simulator.run(state, settings)
    _write(os.path.join(out, "trace.csv"), trace.to_csv())
    _write(os.path.join(out, "ed.csv"), _csv(["t", "ed_residual", "D_half"], zip(
        trace.ed_t, trace.ed_residual, trace.ed_dissipation)))
    _write(os.path.join(out, "trace.gnuplot"), _plot_script("trace.csv"))
    msg = [f"simulate: {len(trace.t)} records to trace.csv"]
    if trace.ed_residual:
        msg.append(f"ED residual (relative) {trace.ed_relative_residual():.3e}")
    try:
        rate, r2, valid = sim.measure_decay_rate(trace)
        msg.append(f"fitted decay rate {rate:.6f} (R^2 = {r2:.6f}, valid = {valid})")
    except sim.FitError:
        pass
    print("; ".join(msg))
    return EXIT_OK


def _plot_script(csv_name: str) -> str:
    return (
        "# gnuplot script for the energy trace\n"
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set logscale y\n"
        "set xlabel 't'\n"
        "set ylabel 'functional value'\n"
        f"plot '{csv_name}' using 1:2 with lines title 'E_eq', \\\n"
        f"     '{csv_name}' using 1:3 with lines title 'D_eq', \\\n"
        f"     '{csv_name}' using 1:6 with lines title 'E_geo'\n"
        "pause -1\n"
    )


def _map_identities(eta: SpectralField, dom: FlattenedDomain):
    """min J and the map-identity checks: A (grad Phi)^T = I, det grad Phi = J, Piola."""
    gc = geo.geometric_coefficients(eta, dom)
    GP = gc.grad_Phi.values
    AgT = np.einsum("ik...,jk...->ij...", gc.A.values, GP)
    eye = np.eye(dom.ncomp).reshape((dom.ncomp, dom.ncomp) + (1,) * (dom.n + 1))
    det = np.linalg.det(np.moveaxis(GP, [0, 1], [-2, -1]))
    return gc.min_j, [
        ("A_gradPhiT_identity", float(np.max(np.abs(AgT - eye))), 1e-12),
        ("det_gradPhi_vs_J", float(np.max(np.abs(det - gc.J.values))), 1e-12),
        ("piola_residual", geo.piola_residual(eta, dom), 1e-8),
    ]


def _check_table(label: str, checks) -> int:
    """Print (name, value, tolerance) rows and a pass count; returns the exit code.

    A row passes when value <= tolerance; a row without tolerance is
    informational and not counted.
    """
    width = max(len(name) for name, _, _ in checks)
    gated = failed = 0
    for name, value, tol in checks:
        line = f"  {name:{width}s}  {value:.6e}"
        if tol is not None:
            ok = value <= tol
            gated += 1
            failed += 0 if ok else 1
            line += f"  (tol {tol:g})  {'pass' if ok else 'FAIL'}"
        print(line)
    print(f"{label}: {gated - failed}/{gated} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def cmd_geometry_check(cfg: RunConfig, out: str) -> int:
    dom = _domain(cfg)
    grid = dom.horizontal
    if cfg.modes:
        eta = _field_from_modes(cfg.modes, grid)
    else:
        eta = SpectralField.from_modes(grid, {(1,) + (0,) * (grid.n - 1): 0.025})
    min_j, identities = _map_identities(eta, dom)

    # per-mode extension identity at |k| <= 1
    prof = np.exp(2 * np.pi * dom.x3)
    ident = np.max(np.abs(dom.D3 @ prof - 2 * np.pi * prof)) / np.max(np.abs(2 * np.pi * prof))

    rng = np.random.default_rng(cfg.seed)
    vv = np.zeros((dom.ncomp,) + grid.shape + (dom.M_v,))
    for i in range(dom.ncomp):
        base = random_band_limited(grid, min(2, grid.N // 4), 0.5, rng).samples()
        vv[i] = (base[..., None] + 0.2) * np.exp(2.0 * dom.x3)
    v = geo.BulkField(dom, vv)
    checks = [("min_J", min_j, None), ("extension_identity_k1", ident, 1e-13), *identities,
              ("div_theorem_residual", geo.div_theorem_residual(v, eta, dom), 1e-8)]

    print(f"geometry-check on {grid.N}^{grid.n} x {dom.M_v} grid, depth {dom.b}")
    return _check_table("geometry-check", checks)


def _validation_suite(seed: int):
    """Fast cross-module invariant checks: (name, residual, tolerance)."""
    rng = np.random.default_rng(seed)
    out = []

    grid = TorusGrid(2, 16)
    f = random_band_limited(grid, 4, 1.0, rng)
    rt = np.max(np.abs(SpectralField.from_samples(grid, f.samples()).coeffs - f.coeffs))
    out.append(("fourier_round_trip", rt, 10 * np.finfo(float).eps * grid.N))
    d12 = f.derivative((1, 0)).derivative((0, 1))
    d21 = f.derivative((0, 1)).derivative((1, 0))
    out.append(("derivative_commutes", np.max(np.abs(d12.coeffs - d21.coeffs)), 1e-12))
    pars = abs(f.sobolev_norm(0.0) ** 2 - np.mean(f.samples() ** 2))
    out.append(("parseval", pars / max(f.sobolev_norm(0.0) ** 2, 1e-300), 1e-12))

    density = dn.willmore()
    eta = random_band_limited(grid, 3, 0.05, rng)
    phi = random_band_limited(grid, 3, 0.05, rng)
    pair = se.first_variation(density, eta).l2_inner(phi)
    eps = 1e-4
    fd = (se.energy(density, eta + eps * phi) - se.energy(density, eta - eps * phi)) / (2 * eps)
    out.append(("gradient_consistency", abs(fd - pair) / max(abs(pair), 1e-300), 1e-6))
    sym = se.hessian_symbol(density, 0.0, (1, 0))
    out.append(("willmore_symbol", abs(sym - 16 * np.pi**4) / (16 * np.pi**4), 1e-10))

    beta_star = (4 * np.pi**2 + 1) / (16 * np.pi**4)
    ok_above = se.ellipticity_check(dn.combo(-1.0, 1.01 * beta_star), -1.0, 3).verdict
    ok_below = se.ellipticity_check(dn.combo(-1.0, 0.99 * beta_star), -1.0, 3).verdict
    out.append(("ellipticity_threshold", 0.0 if (ok_above and not ok_below) else 1.0, 0.5))

    dom = FlattenedDomain(b=1.0, horizontal=grid, M_v=16)
    out += _map_identities(SpectralField.from_modes(grid, {(1, 0): 0.02}), dom)[1]

    op = st.assemble_mode((1, 0), 1.0, se.hessian_symbol(dn.area(1.0), 1.0, (1, 0)), 16)
    spec = st.solve_spectrum(op)
    out.append(("stable_spectrum", 0.0 if np.all(spec.eigenvalues.real > 0) else 1.0, 0.5))
    v = spec.eigenvectors[:, 0]
    lam = spec.eigenvalues[0]
    x = st.resolvent_solve(op, 1e-2, v)
    out.append(("resolvent_eigen_identity",
                np.linalg.norm(x - v / (1 + lam * 1e-2)) / np.linalg.norm(v), 1e-8))

    simulator = sim.Simulator(dn.area(1.0), 1.0, dom)
    state = simulator.admissible_data([sim.ModeSeed((1, 0), eta=1e-3, u=1e-3)])
    out.append(("admissible_divergence", state.divergence_residual(), 1e-9))
    out.append(("admissible_no_slip", state.bottom_slip(), 1e-9))
    state = simulator.init_pressure(state)
    cur = state
    for _ in range(50):
        cur = simulator.step(cur, 1e-3)
    out.append(("mass_conservation", abs(cur.mass() - state.mass()), 1e-14))
    zero = sim.FlattenedState(dom, {}, 0.0)
    zrec = simulator.functionals(zero)
    out.append(("zero_state_steady", max(abs(v) for v in zrec.values()), 1e-13))
    return out


def cmd_validate(seed: int) -> int:
    return _check_table("validate", _validation_suite(seed))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabflow",
        description="Spectral laboratory for a viscous slab with a bending/tension surface",
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory for generated files")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=_positive_int, default=1, help="threads for mode sweeps")
    parser.add_argument(
        "command",
        choices=["variations", "figure-forces", "ellipticity", "dispersion",
                 "simulate", "geometry-check", "validate"],
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.seed if args.seed is not None else 0)
        if args.config is None:
            print("error: --config is required for this command", file=sys.stderr)
            return EXIT_CONFIG
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = RunConfig(**{**cfg.__dict__, "seed": args.seed})
        os.makedirs(args.out, exist_ok=True)
        if args.command == "variations":
            return cmd_variations(cfg, args.out)
        if args.command == "figure-forces":
            return cmd_figure_forces(cfg, args.out)
        if args.command == "ellipticity":
            return cmd_ellipticity(cfg, args.out)
        if args.command == "dispersion":
            return cmd_dispersion(cfg, args.out, args.threads)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "geometry-check":
            return cmd_geometry_check(cfg, args.out)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, DomainDegenerate, se.EvaluationError, sim.FitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
