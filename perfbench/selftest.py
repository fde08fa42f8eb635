"""Tests of the benchmark itself (not of slabflow).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from perfbench import gates, tracing
from perfbench import inputs as inp


def test_inputs_are_deterministic_per_seed():
    for make in (inp.trajectory_amplitudes, inp.stepping_amplitudes, inp.spectrum_config,
                 inp.spectrum_check_rows):
        assert make(7) == make(7)
        assert make(7) != make(8)
    a, b, c = inp.surface_triples(7), inp.surface_triples(7), inp.surface_triples(8)
    assert all(np.array_equal(x, y) for ta, tb in zip(a, b) for x, y in zip(ta, tb))
    assert not np.array_equal(a[0][0], c[0][0])


def test_generated_inputs_have_the_stated_shape():
    amps = inp.trajectory_amplitudes(3)
    assert len(amps) == inp.TRAJECTORY_MODES
    assert all(max(abs(c) for c in k) <= inp.SEED_KMAX for k in amps)
    assert len(inp.stepping_amplitudes(3)) == 40 == len(inp.representatives(4))
    assert all(0 < abs(a) <= inp.AMPLITUDE for a in amps.values())
    eta = inp.surface_triples(3)[0][0]
    values = np.fft.ifft2(eta).real * eta.size
    assert np.isclose(np.max(np.abs(values)), inp.SURFACE_SUP)
    assert np.max(np.abs(np.fft.ifft2(eta).imag)) < 1e-15   # Hermitian: a real field


def test_self_time_on_a_synthetic_span_tree():
    spans = [["root", 0.0, 10.0, -1, 0],
             ["child", 1.0, 4.0, 0, 0],
             ["grandchild", 2.0, 3.0, 1, 0],
             ["child", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_report_adds_setup_to_the_median_pass():
    t = tracing.Tracer(())
    t.spans = [["stability.solve_spectrum", 0.0, 2.0, -1, -1],   # set-up
               ["stability.eig", 0.5, 1.5, 0, -1],
               ["simulate.step", 3.0, 4.0, -1, 0],               # pass 0
               ["simulate.step", 5.0, 8.0, -1, 1],               # pass 1
               ["simulate.step", 8.0, 9.0, -1, 1],
               ["simulate.step", 10.0, 15.0, -1, 2]]             # pass 2
    t.op_pass = {-1: -1, 0: 0, 1: 1, 2: 2}
    out = t.report([0, 1, 2])
    assert out["simulate.step.calls"] == 1.0          # median of 1, 2, 1
    assert out["simulate.step.s"] == 4.0              # median of 1, 4, 5
    assert out["stability.solve_spectrum.s"] == 1.0   # self time: 2 - 1
    assert out["stability.filter.s"] == 1.0
    assert out["stability.eig.s"] == 1.0
    assert out["simulate.step.ms_p50"] == 1000.0 * np.percentile([1, 3, 1, 5], 50)


def test_wrapper_records_spans_counts_failures_and_restores():
    class Boom(RuntimeError):
        pass

    def inner(x):
        if x < 0:
            raise Boom("negative")
        return 2 * x

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda x: mod.inner(x) + 1
    t = tracing.Tracer((Boom,))
    t.wrap(mod, "inner", "geometry.inner")
    t.wrap(mod, "outer", "simulate.outer")
    t.begin_op(0)
    assert mod.outer(3) == 7
    with pytest.raises(Boom):
        mod.outer(-1)
    assert [s[0] for s in t.spans] == ["simulate.outer", "geometry.inner"] * 2
    assert t.spans[1][3] == 0 and t.spans[0][3] == -1 and t.spans[1][4] == 0
    assert t.failed == {"geometry": 1}                # counted once, where it was raised
    t.uninstall()
    assert mod.inner is inner


def test_metric_names_match_the_report():
    t = tracing.Tracer(())
    t.op_pass = {-1: -1, 0: 0}
    out = t.report([0])
    names = {name for name, _ in tracing.metric_names()}
    assert names - {"import.s", "trace.overhead_ratio"} == set(out)


@pytest.fixture(scope="module")
def reference():
    return gates.load_reference()


def test_dispersion_gate_accepts_the_reference_and_trips_on_a_perturbed_value(reference):
    rows = {tuple(r[:2]): tuple(r[2:]) for r in reference["dispersion"]}
    assert gates.dispersion_failures(dict(rows), rows) == set()
    perturbed = dict(rows)
    lam, re2, im2 = perturbed[(1, 2)]
    perturbed[(1, 2)] = (lam * (1 + 1e-6), re2, im2)
    assert gates.dispersion_failures(rows, perturbed) == {(1, 2)}


def test_symmetry_gate_trips_when_a_rotated_row_differs(reference):
    rows = {tuple(r[:2]): tuple(r[2:]) for r in reference["dispersion"]}
    skewed = dict(rows)
    lam, re2, im2 = skewed[(2, 1)]
    skewed[(2, 1)] = (lam * (1 + 1e-7), re2, im2)    # (2, 1) is in the orbit of (1, 2)
    failed = gates.dispersion_failures(skewed, {k: v for k, v in rows.items() if k == (1, 2)})
    assert failed == {(1, 2)}


def test_prediction_gate_trips_on_a_perturbed_reference(reference):
    amps = inp.trajectory_amplitudes(1)
    pred = gates.predicted_functionals(reference["modes"], amps, 20, inp.DT)
    rec = dict(pred, E_geo=pred["E_eq"], D_geo=pred["D_eq"])
    assert gates.record_problems(rec, pred, 0.0, 0.0) == []
    modes = {k: dict(v) for k, v in reference["modes"].items()}
    k = gates.key(next(iter(amps)))
    modes[k]["D_eq"] *= 1 + 1e-5
    bad = gates.predicted_functionals(modes, amps, 20, inp.DT)
    assert any("D_eq" in p for p in gates.record_problems(rec, bad, 0.0, 0.0))
    assert gates.record_problems(rec, pred, 1e-300, 0.0) == ["mass drift 1e-300"]


def test_surface_gates_trip_on_perturbed_references(reference):
    anchor = reference["surface_anchor"]
    assert gates.anchor_problems(dict(anchor), anchor) == []
    name = next(k for k, v in anchor.items() if v != 0.0)
    assert gates.anchor_problems(dict(anchor, **{name: anchor[name] * (1 + 1e-8)}), anchor)
    assert gates.relative_mismatch(1.0 + 2e-6, 1.0, 1.0) > gates.FD_TOL
    assert gates.relative_mismatch(0.0, 0.0, 0.0) == 0.0

