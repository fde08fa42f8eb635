"""Layer tracing from outside the program.

A Tracer replaces public functions at the attribute the caller looks up
(a module global, an imported name, or a method on its class) with a
wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory until the run ends.  Nothing under `src/` changes;
`uninstall` puts every original back.

Self time of a span is its duration minus the durations of its children;
calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Per-layer metric names, in the order they are reported.  Keep in step
# with `per_layer` in BENCHMARK.json.
MODULES = ("simulate", "stability", "geometry", "surface_energy", "densities",
           "fourier", "profiles", "config", "cli")
CALLS_AND_SELF = (
    "simulate.functionals", "simulate.step", "simulate.equilibrium_pair",
    "stability.assemble_mode", "stability.solve_spectrum",
    "geometry.geometric_coefficients", "geometry.bulk_integral",
    "surface_energy.jet_fields", "surface_energy.energy", "surface_energy.hessian_symbol",
    "densities.value", "densities.grad", "densities.hess", "densities.third",
    "fourier.transforms",
)
SELF_ONLY = (
    "simulate.geometric_pair", "simulate.improved_pair", "simulate.stepper_factor",
    "simulate.init_state", "stability.eig", "stability.filter",
    "surface_energy.first_variation", "surface_energy.second_variation_apply",
    "surface_energy.third_variation_apply", "fourier.embed_truncate",
    "profiles.force_columns", "config.load_config", "cli.main",
)
PERCENTILES = {"simulate.functionals": (50, 90), "simulate.step": (50,),
               "stability.solve_spectrum": (50, 90)}
COUNTS = ("simulate.modes", "stability.kept_ratio", "stability.eig_dim3",
          "stability.distinct_symbol_ratio", "densities.points", "fourier.transform_points")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric."""
    out = []
    for layer in CALLS_AND_SELF:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s")]
    out += [(f"{layer}.s", "s") for layer in SELF_ONLY]
    for layer, qs in PERCENTILES.items():
        out += [(f"{layer}.ms_p{q}", "ms") for q in qs]
    out += [(name, "ratio" if name.endswith("ratio") else "count") for name in COUNTS]
    out += [(f"{m}.failed", "count") for m in MODULES]
    out += [("import.s", "s"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Span recorder.  `op` is the id of the benchmark call in progress
    (-1 during set-up); `op_pass` maps op ids to pass indices."""

    def __init__(self, failure_types: tuple[type, ...]):
        self.failure_types = failure_types
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.op_pass: dict[int, int] = {-1: -1}
        self.failed = Counter()
        self.counts: dict[int, Counter] = defaultdict(Counter)   # op -> counter
        self.symbols: dict[int, set] = defaultdict(set)          # op -> {(|k|^2, sigma)}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, pass_index: int):
        self.op = len(self.op_pass) - 1
        self.op_pass[self.op] = pass_index

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace owner.attr by a span-recording wrapper.

        `count(tracer, span, args, result)` may add exact counts after the call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        module = name.split(".")[0]
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except tracer.failure_types as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.failed[module] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, span, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self):
        wrap_slabflow(self)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def parent_name(self, span) -> str:
        return self.spans[span[3]][0] if span[3] >= 0 else ""

    # -- analysis ------------------------------------------------------------

    def report(self, passes: list[int]) -> dict:
        """Per-layer values for one set-up plus one median pass.

        `.calls` and `.s` add the set-up phase to the median over `passes`
        of the per-pass value; latency percentiles use every traced call.
        """
        selfs = self_times(self.spans)
        per_phase = defaultdict(Counter)          # pass -> Counter of layer sums
        latencies = defaultdict(list)
        for span, own in zip(self.spans, selfs):
            phase = self.op_pass[span[4]]
            per_phase[phase][span[0] + ".calls"] += 1
            per_phase[phase][span[0] + ".s"] += own
            latencies[span[0]].append(span[2] - span[1])
        for op, counter in self.counts.items():
            per_phase[self.op_pass[op]].update(counter)

        def total(metric: str) -> float:
            pass_values = [per_phase[p][metric] for p in passes] or [0.0]
            return per_phase[-1][metric] + statistics.median(pass_values)

        out = {}
        for layer in CALLS_AND_SELF:
            out[f"{layer}.calls"] = total(f"{layer}.calls")
            out[f"{layer}.s"] = total(f"{layer}.s")
        for layer in SELF_ONLY:
            out[f"{layer}.s"] = total(f"{layer}.s")
        # the residual filter is what solve_spectrum does outside the eigensolver
        out["stability.filter.s"] = total("stability.solve_spectrum.s")
        for layer, qs in PERCENTILES.items():
            lat = latencies.get(layer, [])
            for q in qs:
                out[f"{layer}.ms_p{q}"] = 1e3 * float(np.percentile(lat, q)) if lat else 0.0
        out["simulate.modes"] = max((c["simulate.modes"] for c in self.counts.values()), default=0)
        computed = total("stability.eigenvalues_computed")
        kept = total("stability.eigenvalues_kept")
        out["stability.kept_ratio"] = kept / computed if computed else 0.0
        out["stability.eig_dim3"] = total("stability.eig_dim3")
        rows = total("stability.solve_spectrum.calls")
        first = passes[0] if passes else None     # every pass solves the same rows
        symbols = set()
        for op, seen in self.symbols.items():
            if self.op_pass[op] in (-1, first):
                symbols |= seen
        out["stability.distinct_symbol_ratio"] = len(symbols) / rows if rows else 0.0
        out["densities.points"] = total("densities.points")
        out["fourier.transform_points"] = total("fourier.transform_points")
        for m in MODULES:
            out[f"{m}.failed"] = float(self.failed[m])
        return out

    def sample_counts(self, layer: str) -> int:
        return sum(1 for s in self.spans if s[0] == layer)

    def inclusive(self, passes: list[int]) -> dict:
        """Median per-pass inclusive time of each outermost span of a layer."""
        per_pass = defaultdict(Counter)
        for span in self.spans:
            phase = self.op_pass[span[4]]
            if phase in passes and not self._has_ancestor(span, span[0]):
                per_pass[phase][span[0]] += span[2] - span[1]
        layers = set().union(*per_pass.values()) if per_pass else set()
        return {layer: statistics.median(per_pass[p][layer] for p in passes) for layer in layers}

    def _has_ancestor(self, span, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the summed durations of its children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# -- count hooks -------------------------------------------------------------


def count_modes(tracer, span, args, result):
    tracer.counts[span[4]]["simulate.modes"] = max(
        tracer.counts[span[4]]["simulate.modes"], len(args[1].modes))


def count_eig(tracer, span, args, result):
    tracer.counts[span[4]]["stability.eig_dim3"] += int(np.shape(args[0])[0]) ** 3


def count_spectrum(tracer, span, args, result):
    op = args[0]
    c = tracer.counts[span[4]]
    c["stability.eigenvalues_computed"] += op.dim
    c["stability.eigenvalues_kept"] += len(result.eigenvalues)
    # sigma of rotated wavevectors differs in the last bits; 12 digits is the symbol
    tracer.symbols[span[4]].add((sum(int(k) ** 2 for k in op.k), float(f"{op.sigma:.12g}")))


def count_points(tracer, span, args, result):
    if not tracer.parent_name(span).startswith("densities."):
        tracer.counts[span[4]]["densities.points"] += int(np.prod(np.shape(args[1])[:-1]))


def count_transform(tracer, span, args, result):
    tracer.counts[span[4]]["fourier.transform_points"] += int(np.size(args[0]))


def wrap_slabflow(tracer: Tracer):
    """Wrap every traced entry point of slabflow."""
    import scipy.linalg

    from slabflow import cli, config, densities, fourier, geometry, profiles
    from slabflow import simulate, stability, surface_energy

    S = simulate.Simulator
    for attr, name in (("functionals", "simulate.functionals"),
                       ("_geometric_pair", "simulate.geometric_pair"),
                       ("_improved_pair", "simulate.improved_pair"),
                       ("_equilibrium_pair", "simulate.equilibrium_pair"),
                       ("eigenmode_data", "simulate.init_state"),
                       ("admissible_data", "simulate.init_state"),
                       ("init_pressure", "simulate.init_state")):
        tracer.wrap(S, attr, name)
    tracer.wrap(S, "step", "simulate.step", count_modes)
    # lu_factor is called only by the simulator's steppers, eig only by stability
    tracer.wrap(scipy.linalg, "lu_factor", "simulate.stepper_factor")
    tracer.wrap(scipy.linalg, "eig", "stability.eig", count_eig)
    for owner in (simulate, stability):
        tracer.wrap(owner, "assemble_mode", "stability.assemble_mode")
        tracer.wrap(owner, "solve_spectrum", "stability.solve_spectrum", count_spectrum)
    tracer.wrap(geometry, "geometric_coefficients", "geometry.geometric_coefficients")
    tracer.wrap(geometry, "bulk_integral", "geometry.bulk_integral")
    tracer.wrap(surface_energy, "_jet_fields", "surface_energy.jet_fields")
    for attr in ("energy", "first_variation", "second_variation_apply",
                 "third_variation_apply", "hessian_symbol"):
        tracer.wrap(surface_energy, attr, f"surface_energy.{attr}")
    tracer.wrap(stability, "hessian_symbol", "surface_energy.hessian_symbol")
    for cls in (densities.BendingDensity, densities.NormalizedDensity):
        for attr in ("value", "grad", "hess", "third"):
            tracer.wrap(cls, attr, f"densities.{attr}", count_points)
    for owner in (fourier, surface_energy, profiles):
        for attr in ("coeffs_to_samples", "samples_to_coeffs"):
            tracer.wrap(owner, attr, "fourier.transforms", count_transform)
        for attr in ("embed_coeffs", "truncate_coeffs"):
            tracer.wrap(owner, attr, "fourier.embed_truncate")
    tracer.wrap(profiles, "force_columns", "profiles.force_columns")
    tracer.wrap(config, "load_config", "config.load_config")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "main", "cli.main")
