"""slabflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout.  One run sets up the workload, repeats
passes for about T seconds in this single process and gates every pass's
outputs.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (one set-up plus one median pass, traced
from outside the program) with --trace 1.  Earlier lines give the
environment, the failed ratio and, when traced, the measured share of the
layers each workload is predicted to be dominated by.  --summary runs all
four workloads and prints one table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, "perfbench", "out")
NAMES = ("trajectory", "stepping", "spectrum", "surface")
SETUP_SAMPLES = 3      # fresh processes whose set-up time is measured, this one included
MIN_PASSES = 3
CHILD_TIMEOUT = 150

# Layers each workload is predicted to spend most of a pass in.
PREDICTED = {
    "trajectory": ("simulate.geometric_pair",),
    "stepping": ("simulate.equilibrium_pair", "simulate.step"),
    "spectrum": ("stability.solve_spectrum",),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true", help="run every workload, print a table")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.summary and args.workload is None:
        p.error("--workload is required unless --summary is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS name and version, and the thread count of each OpenBLAS copy
    that numpy and scipy bundle (read through ctypes, best effort)."""
    import ctypes
    import glob

    import numpy
    import scipy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version")}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = glob.glob(os.path.join(os.path.dirname(pkg.__file__), "..",
                                      pkg.__name__ + ".libs", "libscipy_openblas*.so"))
        threads = None
        try:
            fn = getattr(ctypes.CDLL(libs[0]), symbol)
            fn.restype = ctypes.c_int
            threads = fn()
        except (IndexError, OSError, AttributeError):
            pass
        out[f"{pkg.__name__}_threads"] = threads
    return out


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "slabflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int, grid: dict) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "grid": grid, "seed": seed,
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


# -- measurement ---------------------------------------------------------------


def setup_samples(args) -> list[float]:
    """Set-up time of further fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {done.stderr.strip()}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def one_pass(wl, mark, index: int) -> dict:
    wall0, cpu0 = perf_counter(), process_time()
    outputs = wl.run_pass(lambda i: mark(index))
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    return {"index": index, "wall_s": wall, "cpu_s": cpu, "failed": wl.check(outputs)}


def run_passes(wl, seconds: float) -> list[dict]:
    """Repeat passes until the next one would end after `seconds`."""
    passes = []
    begin = perf_counter()
    while (len(passes) < MIN_PASSES
           or perf_counter() - begin + median_wall(passes) <= seconds):
        passes.append(one_pass(wl, lambda index: None, len(passes)))
    return passes


def run_traced_passes(wl, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Alternate traced and untraced passes, so that both see the same
    machine; the tracer is installed on entry and removed on return."""
    traced, untraced = [], []
    begin = perf_counter()
    while (len(untraced) < 2
           or perf_counter() - begin + 2 * median_wall(traced + untraced) <= seconds):
        traced.append(one_pass(wl, tracer.begin_op, len(traced) + len(untraced)))
        tracer.uninstall()
        untraced.append(one_pass(wl, lambda index: None, len(traced) + len(untraced)))
        tracer.install()
    tracer.uninstall()
    return traced, untraced


def failure_totals(wl, passes: list[dict]) -> tuple[int, int]:
    final = wl.final_check()
    attempted = wl.ops_per_pass * len(passes)
    failed = sum(len(p["failed"] | final) for p in passes)
    return attempted, failed


def median_wall(passes) -> float:
    return statistics.median(p["wall_s"] for p in passes)


def end_to_end(passes, setups, ops_per_pass: int) -> dict:
    ops = ops_per_pass * len(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median_wall(passes), "s"),
        "ops_per_s": (ops / sum(p["wall_s"] for p in passes), "1/s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def dominance_lines(name: str, tracer, traced, wall: float) -> list[str]:
    """Measured inclusive share of the predicted layers, and the largest shares."""
    incl = tracer.inclusive([p["index"] for p in traced])
    lines = []
    if name in PREDICTED:
        layers = PREDICTED[name]
        share = sum(incl.get(layer, 0.0) for layer in layers) / wall
        verdict = "holds" if share > 0.5 else "does not hold"
        lines.append(f"prediction: {' + '.join(layers)} dominate the pass: inclusive share "
                     f"{share:.3f} of traced wall_s {wall:.4f} s -> {verdict}")
    top = sorted(incl.items(), key=lambda kv: -kv[1])[:6]
    lines.append("inclusive shares: " + ", ".join(f"{k} {v / wall:.3f}" for k, v in top))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slabflow", "__init__.py")):
        print(f"error: slabflow sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.summary:
        return summary(args)

    sys.path[:0] = [ROOT, SRC]
    t0 = perf_counter()
    import slabflow
    import_s = perf_counter() - t0
    if not os.path.abspath(slabflow.__file__).startswith(SRC + os.sep):
        print(f"error: imported slabflow from {slabflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import gates, tracing, workloads
    from slabflow.geometry import DomainDegenerate
    from slabflow.stability import NumericError
    from slabflow.surface_energy import EvaluationError

    wl = workloads.WORKLOADS[args.workload](args.seed, gates.load_reference(), OUTDIR)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer((NumericError, DomainDegenerate, EvaluationError))
        tracer.install()
    wl.setup()
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args.seed, wl.grid)
    if tracer is None:
        setups = [setup_s] + setup_samples(args)
        passes = run_passes(wl, args.seconds)
        traced = []
    else:
        traced, passes = run_traced_passes(wl, args.seconds, tracer)
    attempted, failed = failure_totals(wl, traced + passes)

    if tracer is None:
        metrics = end_to_end(passes, setups, wl.ops_per_pass)
        notes = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}"]
    else:
        layer = tracer.report([p["index"] for p in traced])
        layer["import.s"] = import_s
        layer["trace.overhead_ratio"] = median_wall(traced) / median_wall(passes)
        metrics = {name: (layer[name], unit) for name, unit in tracing.metric_names()}
        notes = dominance_lines(args.workload, tracer, traced, median_wall(traced))
        for name in tracing.PERCENTILES:
            notes.append(f"{name}: {tracer.sample_counts(name)} latency samples")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUTDIR, exist_ok=True)
    dump = {"workload": args.workload, "trace": args.trace, "env": env, "result": result,
            "passes": [{**p, "failed": sorted(map(str, p["failed"]))} for p in traced + passes]}
    if tracer is not None:
        dump["spans"] = tracer.spans
        dump["op_pass"] = tracer.op_pass
    with open(os.path.join(OUTDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dump, fh)

    print("env: " + json.dumps(env))
    print(f"{args.workload}: {len(traced + passes)} passes, {attempted} ops, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}")
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


# -- summary ---------------------------------------------------------------------


def summary(args) -> int:
    """Run every workload in its own process and print one table."""
    rows, ok = [], True
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"{name}: failed with exit code {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        lines = done.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        for line in lines[1:-1]:
            print(f"[{name}] {line}")
        rows.append((name, "failed_ratio", res["failed"] / res["attempted"], "ratio"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
    width = max(len(r[1]) for r in rows) if rows else 10
    for name, metric, value, unit in rows:
        print(f"{name:11s} {metric:{width}s} {value:>16.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
