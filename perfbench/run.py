#!/usr/bin/env python3
"""fidlab benchmark: seeded workloads through the public API and CLI.

    python3 perfbench/run.py --workload states --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload states --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off: one process,
one closed-loop client, no benchmark threads; the clock runs only while an
op is inside fidlab. ``--trace 1`` runs a fixed op count twice, untraced
then traced, and prints the per-layer metrics. Every op's output is checked
against an independent reference outside the timed region. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads, metrics and their units.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads
from tracing import ALL_LAYERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up probes: this many before the timed run, again after it, and one at
# each of these shares of --seconds of op time; the host's speed drifts over
# tens of seconds, so probes at several moments give a steadier median
SETUP_PROBES_AROUND = 3
SETUP_PROBE_MARKS = (0.25, 0.5, 0.75)
MIN_BEYOND_P90 = 10
MAX_EXTEND = 4  # a run may stretch to this many --seconds to fill its last stretch
FAILURES_SHOWN = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# the per-layer metrics of the result line: defined on every workload, and
# never a time of a layer some workload does not enter, which would read an
# exact 0 ms on every run (README.md)
PER_LAYER_JSON = (
    [f"{layer}.calls_per_op" for layer in ALL_LAYERS]
    + [f"{layer}.errors_per_op" for layer in ALL_LAYERS]
    + ["linalg_core.self_ms_per_op", "numpy_linalg.self_ms_per_op",
       "numpy_linalg.eigh_per_op", "numpy_linalg.svd_per_op", "numpy_linalg.n3_per_op",
       "trace.overhead_x"]
)
KNOWN_DEFECT_PAIRS = 16


def load_fidlab():
    """Import fidlab from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fidlab
        import fidlab.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fidlab from {SRC}: {exc}")
    if not Path(fidlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: fidlab imported from {fidlab.__file__}, not {SRC}")
    return fidlab


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ms_per_op") or metric.endswith(".ms_per_call"):
        return "ms"
    if metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("_x"):
        return "ratio"
    return "count"


# -- statistics ---------------------------------------------------------------

def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def latency_summary(latencies: list[float]) -> dict:
    """Median and p90 in ms; p90 only when at least MIN_BEYOND_P90 samples lie beyond it."""
    xs = sorted(latencies)
    p90 = nearest_rank(xs, 0.9)
    beyond = sum(1 for x in xs if x > p90)
    return {"n": len(xs), "p50_ms": nearest_rank(xs, 0.5) * 1e3,
            "p90_ms": p90 * 1e3 if beyond >= MIN_BEYOND_P90 else None,
            "beyond_p90": beyond}


# -- metadata -----------------------------------------------------------------

def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, read through its own API."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fidlab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "FIDLAB_THREADS": os.environ.get("FIDLAB_THREADS"),
        "load": "one process, one closed-loop client, no benchmark threads",
    }


# -- running ops ----------------------------------------------------------------

class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, workload, op, out, err) -> None:
        self.attempted += 1
        if err is not None:
            misses = [f"raised {type(err).__name__}: {err}"]
        else:
            misses = workload.check(op, out)
        if misses:
            self.failed += 1
            if len(self.reasons) < FAILURES_SHOWN:
                self.reasons.append(f"op {op.index} ({op.label}): {'; '.join(misses)}")


def call(run, *args):
    try:
        return run(*args), None
    except Exception as exc:  # a raising op is a failed op, counted and reported
        return None, exc


def timed_run(workload, seconds: float, between_blocks=None) -> dict:
    """Closed loop over whole stretches until --seconds of op time have elapsed.

    ``between_blocks(busy_s)`` is called after each block, with the clock
    stopped; the set-up probes run from it.
    """
    tally = Tally()
    latencies: list[float] = []
    seen: set[bytes] = set()
    repeated = 0
    busy = 0.0
    for n_blocks, block in enumerate(workload.stream(), start=1):
        outputs = []
        for op in block:
            t0 = time.perf_counter()
            out, err = call(workload.run, op)
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            outputs.append((op, out, err))
        for op, out, err in outputs:
            tally.record(workload, op, out, err)
            key = hashlib.blake2b(op.operand_key, digest_size=16).digest()
            repeated += key in seen
            seen.add(key)
        if between_blocks is not None:
            between_blocks(busy)
        if busy >= MAX_EXTEND * seconds or (
                busy >= seconds and n_blocks % workload.stretch_blocks == 0
                and len(latencies) >= 10 * MIN_BEYOND_P90):
            break
    return {"tally": tally, "latencies": latencies, "busy_s": busy,
            "repeated_share": repeated / len(latencies)}


def stretch_medians(latencies: list[float], stretch_size: int) -> dict:
    """Median over consecutive stretches of ``stretch_size`` ops of each
    stretch's ops_per_s and p50; a trailing partial stretch joins the last one.

    A stretch is whole blocks, so it holds the exact input mix. README.md
    explains why these figures, and not the whole run's, are gated.
    """
    starts = list(range(0, max(len(latencies) - stretch_size, 0) + 1, stretch_size))
    bounds = list(zip(starts, starts[1:] + [len(latencies)]))
    stretches = [latencies[a:b] for a, b in bounds]
    return {"stretches": len(stretches), "n": stretch_size,
            "ops_per_s": statistics.median(len(s) / sum(s) for s in stretches),
            "p50_ms": statistics.median(latency_summary(s)["p50_ms"] for s in stretches)}


def measure_setup(workload_name: str, workdir: Path, probes: int) -> list[float]:
    """Wall time from starting a fresh interpreter until it can issue an op."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                                 workload_name, str(workdir)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return times


def known_defect_probe(fidlab, seed: int) -> int:
    """fidelity_min misses on rank-deficient Y with a rotated kernel (README.md)."""
    misses = 0
    for X, Y in oracle.rotated_kernel_pairs(seed, KNOWN_DEFECT_PAIRS):
        value, err = call(fidlab.fidelity_min, X, Y)
        ref = oracle.fidelity_min_ref(X, Y)
        misses += err is not None or abs(value - ref) > oracle.FIDELITY_TOL * (1 + abs(ref))
    return misses


def traced_run(workload, seed: int, meta: dict) -> dict:
    """A fixed op list, once untraced and once traced, so counts repeat exactly."""
    ops = [op for k in range(workload.trace_ops // workload.block_size)
           for op in workload.block(k)]
    tally = Tally()
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        outputs.append((op, *call(workload.run, op)))
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        for op in ops:
            outputs.append((op, *call(tracer.run_op, op.index, workload.run, op)))
        traced_s = time.perf_counter() - t0
    for op, out, err in outputs:
        tally.record(workload, op, out, err)
    metrics = layer_metrics(tracer, len(ops), {op.index: op.label for op in ops})
    metrics["trace.overhead_x"] = traced_s / untraced_s
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{workload.name}-seed{seed}.npz"
    tracer.save(span_file, json.dumps(meta))
    return {"tally": tally, "metrics": metrics, "n_ops": len(ops), "spans": len(tracer.name),
            "untraced_ops_per_s": len(ops) / untraced_s,
            "traced_ops_per_s": len(ops) / traced_s, "span_file": span_file}


# -- output -----------------------------------------------------------------------

def row(name: str, value, unit: str, note: str = "") -> str:
    shown = (f"{value:.6g}" if isinstance(value, float) else
             "n/a" if value is None else str(value))
    return f"  {name:<34} {shown:>14}  {unit:<6} {note}".rstrip()


def print_failures(tally: Tally) -> None:
    print(row("failed_frac", tally.failed / tally.attempted, "ratio",
              f"({tally.failed} of {tally.attempted} ops failed)"))
    for reason in tally.reasons:
        print(f"    failure: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fidlab = load_fidlab()
    meta = run_metadata(args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(scratch))
        mode = "traced" if args.trace else "untraced"
        print(f"fidlab benchmark: workload={workload.name} seed={args.seed} mode={mode}")
        print("meta " + json.dumps(meta, sort_keys=True))
        print("  known defect: FIDLAB_THREADS has no effect here; the env-var fallback in "
              "cli._apply_thread_cap runs after numpy has loaded OpenBLAS")
        if args.trace:
            workload.warm_up()
            result = traced_run(workload, args.seed, meta)
            tally, metrics = result["tally"], result["metrics"]
            print(f"  traced pass: {result['n_ops']} ops (fixed count), {result['spans']} "
                  f"spans written to {result['span_file'].relative_to(ROOT)}")
            print(row("untraced ops_per_s", result["untraced_ops_per_s"], "1/s"))
            print(row("traced ops_per_s", result["traced_ops_per_s"], "1/s"))
            for name in sorted(metrics):
                note = ("(computed op count)" if name.endswith("n3_per_op") else
                        "(no such call in this workload)" if metrics[name] is None else "")
                print(row(name, metrics[name], unit_of(name), note))
            print(row("waiting_ms_per_op", 0.0, "ms",
                      "(zero by construction: one thread, no queue)"))
            print_failures(tally)
            reported = {m: metrics[m] for m in PER_LAYER_JSON}
        else:
            setups = measure_setup(workload.name, Path(scratch), SETUP_PROBES_AROUND)
            marks = [m * args.seconds for m in SETUP_PROBE_MARKS]

            def probe_at_marks(busy_s):
                while marks and busy_s >= marks[0]:
                    marks.pop(0)
                    setups.extend(measure_setup(workload.name, Path(scratch), 1))

            workload.warm_up()
            result = timed_run(workload, args.seconds, probe_at_marks)
            setups += measure_setup(workload.name, Path(scratch), SETUP_PROBES_AROUND)
            tally = result["tally"]
            lat = result["latencies"]
            med = stretch_medians(lat, workload.block_size * workload.stretch_blocks)
            whole = latency_summary(lat)
            print(f"  {len(lat)} ops in {result['busy_s']:.3f} s of op time; ops_per_s and "
                  f"latency_p50_ms are medians over {med['stretches']} stretches of "
                  f"{med['n']} consecutive ops, latency_p90_ms covers the whole run")
            reported = {"ops_per_s": med["ops_per_s"], "latency_p50_ms": med["p50_ms"]}
            print(row("ops_per_s", med["ops_per_s"], "1/s",
                      f"(whole run: {len(lat) / result['busy_s']:.6g})"))
            print(row("latency_p50_ms", med["p50_ms"], "ms",
                      f"(n={med['n']} per stretch; whole run: {whole['p50_ms']:.6g}, "
                      f"n={whole['n']})"))
            if whole["p90_ms"] is None:
                raise SystemExit(f"perfbench: {whole['n']} ops leave fewer than "
                                 f"{MIN_BEYOND_P90} samples beyond p90; raise --seconds")
            reported["latency_p90_ms"] = whole["p90_ms"]
            print(row("latency_p90_ms", whole["p90_ms"], "ms",
                      f"(n={whole['n']}, {whole['beyond_p90']} beyond)"))
            print_failures(tally)
            reported["setup_s"] = statistics.median(setups)
            print(row("setup_s", reported["setup_s"], "s",
                      f"(median of {len(setups)}: "
                      + ", ".join(f"{s:.3f}" for s in setups) + ")"))
            reported["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(row("peak_rss_mb", reported["peak_rss_mb"], "MB"))
            print(row("repeated_operand_share", result["repeated_share"], "ratio"))
            if workload.name == "states":
                misses = known_defect_probe(fidlab, args.seed)
                print(f"  known defect (not timed, not counted): fidelity_min missed its "
                      f"reference on {misses} of {KNOWN_DEFECT_PAIRS} pairs whose Y has a "
                      f"rotated kernel")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
