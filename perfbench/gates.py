"""Correctness gates.  Plain numpy; nothing here calls the program.

Each gate compares program outputs with invariants, with an oracle that
shares no code with the solver, or with reference values recorded from the
program (`reference.json`, written by `make_reference.py`).  A failed gate
counts the ops it covers as failed; no gate reads the energy-dissipation
residual, whose size with eigenmode data at dt = 1e-3 reflects time
resolution of fast modes, not a defect of the run.
"""

from __future__ import annotations

import json
import os

import numpy as np

PREDICTION_RTOL = 1e-8   # records against the per-eigenmode prediction
GEO_RTOL = 1e-4          # E_geo/D_geo against E_eq/D_eq: 6e-6 measured with 40 modes
DISPERSION_RTOL = 1e-8   # dispersion rows against the recorded rows
SYMMETRY_RTOL = 1e-9     # rows of rotated/reflected wavevectors
FD_TOL = 1e-6            # central differences at eps = 1e-4 (acceptance tolerance)
SURFACE_RTOL = 1e-9      # surface and force values against the recorded values

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

FUNCTIONALS = ("E_eq", "D_eq", "E_imp", "D_imp", "E_geo", "D_geo")
MODAL = ("E_eq", "D_eq", "E_imp", "D_imp")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def key(k) -> str:
    return ",".join(str(int(c)) for c in k)


def cn_factor(lam: complex, dt: float) -> complex:
    """Crank-Nicolson amplification of an eigenvector with rate lam."""
    return (1.0 - 0.5 * lam * dt) / (1.0 + 0.5 * lam * dt)


def predicted_functionals(modes_ref: dict, amplitudes: dict, steps: int, dt: float) -> dict:
    """E_eq, D_eq, E_imp, D_imp of an eigenmode superposition after `steps`.

    The four functionals are sums of per-wavevector quadratic forms, and a
    Crank-Nicolson step multiplies an exact eigenvector by cn_factor, so the
    value is sum_k |a_k|^2 |r_k|^(2 steps) times the recorded value of the
    unit-amplitude eigenmode.
    """
    out = dict.fromkeys(MODAL, 0.0)
    for k, a in amplitudes.items():
        ref = modes_ref[key(k)]
        lam = complex(*ref["lambda"])
        weight = abs(a) ** 2 * abs(cn_factor(lam, dt)) ** (2 * steps)
        for name in MODAL:
            out[name] += weight * ref[name]
    return out


def record_problems(rec: dict, predicted: dict, mass: float, mass0: float) -> list[str]:
    """Problems with one trajectory record (empty when it passes)."""
    problems = []
    values = [rec[name] for name in FUNCTIONALS]
    if not all(np.isfinite(values)):
        problems.append("non-finite functional")
        return problems
    if min(values) < 0.0:
        problems.append("negative energy or dissipation")
    for name in MODAL:
        if abs(rec[name] - predicted[name]) > PREDICTION_RTOL * abs(predicted[name]):
            problems.append(f"{name} {rec[name]!r} != predicted {predicted[name]!r}")
    for geo, eq in (("E_geo", "E_eq"), ("D_geo", "D_eq")):
        if abs(rec[geo] - rec[eq]) > GEO_RTOL * abs(rec[eq]):
            problems.append(f"{geo} departs from {eq}")
    if mass != mass0:
        problems.append(f"mass drift {mass - mass0!r}")
    return problems


def _orbit(k):
    kx, ky = k
    for gx, gy in ((kx, ky), (-ky, kx), (-kx, -ky), (ky, -kx),
                   (kx, -ky), (-kx, ky), (ky, kx), (-ky, -kx)):
        yield (gx, gy) if (gx, gy) > (-gx, -gy) or (gx, gy) == (0, 0) else (-gx, -gy)


def _close(a: float, b: float, scale: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * scale


def dispersion_failures(rows: dict, reference: dict) -> set:
    """Wavevectors whose dispersion row fails a gate.

    rows, reference: {(kx, ky): (lambda_min, re_lambda_2, im_lambda_2)}.
    Gates: every reference row present, agreement with the reference, a
    positive slowest rate (the configuration is elliptic), and equal rows
    (|im| for the conjugate-symmetric imaginary part) across each orbit of
    rotations and reflections.
    """
    failed = set()
    for k, ref in reference.items():
        row = rows.get(k)
        if row is None or not all(np.isfinite(row)):
            failed.add(k)
            continue
        scale2 = max(abs(ref[1]), abs(ref[2]))
        if not (_close(row[0], ref[0], abs(ref[0]), DISPERSION_RTOL)
                and _close(row[1], ref[1], scale2, DISPERSION_RTOL)
                and _close(row[2], ref[2], scale2, DISPERSION_RTOL)
                and row[0] > 0.0):
            failed.add(k)
            continue
        for g in _orbit(k):
            other = rows.get(g)
            if other is None or not (
                    _close(other[0], row[0], abs(row[0]), SYMMETRY_RTOL)
                    and _close(other[1], row[1], max(abs(row[1]), abs(row[2])), SYMMETRY_RTOL)
                    and _close(abs(other[2]), abs(row[2]), max(abs(row[1]), abs(row[2])),
                               SYMMETRY_RTOL)):
                failed.add(k)
                break
    return failed


def max_eigpair_residual(L: np.ndarray, B: np.ndarray, w: np.ndarray, V: np.ndarray) -> float:
    """max_i |L v_i - w_i B v_i| / |v_i| over the given eigenpairs."""
    R = L @ V - (B @ V) * w[None, :]
    return float(np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0)))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Integral of the product of two real fields given by their coefficients."""
    return float(np.vdot(b, a).real)


def norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def relative_mismatch(fd: float, exact: float, scale: float) -> float:
    """|fd - exact| / scale; a vanishing variation must be matched exactly."""
    if not (np.isfinite(fd) and np.isfinite(exact)):
        return float("inf")
    if scale == 0.0:
        return 0.0 if fd == exact else float("inf")
    return abs(fd - exact) / scale


FORCE_COLUMNS = ("area_curvature", "willmore_force", "combined_force", "disp_x", "disp_y")
FORCE_SAMPLES = 16


def force_samples(cols: dict) -> dict:
    """Evenly spaced samples of each force column, plus the column's sup norm."""
    n = len(cols["x"])
    idx = np.arange(FORCE_SAMPLES) * (n // FORCE_SAMPLES)
    return {c: {"values": [float(v) for v in np.asarray(cols[c])[idx]],
                "sup": float(np.max(np.abs(cols[c])))} for c in FORCE_COLUMNS}


def force_problems(gaussian: dict, tanh: dict, reference: dict) -> list[str]:
    """Sign, symmetry and reference gates on the two force tables."""
    problems = []
    i0 = int(np.argmin(np.abs(gaussian["x"])))
    if not (gaussian["area_curvature"][i0] < 0.0 and gaussian["willmore_force"][i0] > 0.0):
        problems.append("gaussian force signs")
    curv = np.asarray(tanh["area_curvature"])
    j = np.arange(1, curv.size)
    if np.max(np.abs(curv[j] + curv[curv.size - j])) > 1e-9 * np.max(np.abs(curv)):
        problems.append("tanh curvature is not odd")
    for shape, cols in (("gaussian", gaussian), ("tanh", tanh)):
        got = force_samples(cols)
        for c in FORCE_COLUMNS:
            ref = reference[shape][c]
            scale = max(ref["sup"], 1e-300)
            pairs = zip(got[c]["values"], ref["values"])
            if any(abs(a - b) > SURFACE_RTOL * scale for a, b in pairs):
                problems.append(f"{shape}.{c} differs from the reference")
    return problems


def anchor_problems(values: dict, reference: dict) -> list[str]:
    """Surface values at the fixed anchor inputs against the recorded ones."""
    problems = []
    for name, ref in reference.items():
        got = values.get(name)
        if got is None or not np.isfinite(got) or (
                got != ref and abs(got - ref) > SURFACE_RTOL * abs(ref)):
            problems.append(f"{name}: {got!r} != {ref!r}")
    return problems
