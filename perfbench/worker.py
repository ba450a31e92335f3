"""Runs one workload in a fresh interpreter and prints its raw result as JSON.

Started by run.py, once per run, so that the peak resident set and the
import cost belong to that workload alone.  An untimed warm-up pass comes
first.  Untraced, the worker then measures whole passes until the run
length is reached (and at least 200 items), samples the machine's speed
after every unit, and times the set-up in fresh interpreters spread over the
run.  Traced, it runs TRACE_ROUNDS passes,
each first untraced and then with the tracer open, so every call count
repeats exactly from run to run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

MIN_ITEMS = 200
TRACE_ROUNDS = 3
SETUP_LAUNCHES = 21
# A round figure for the CPU time of reference_seconds(): on the machine the
# benchmark was built on (2.1 GHz Xeon vCPU, Python 3.11.7) it read 9 to 16 ms
REFERENCE_NOMINAL_S = 0.010
# Timed inside a fresh interpreter, so interpreter start is excluded; CPU
# time, like the item latencies (see workloads.py).
SETUP_PROBE = (
    "import time\n"
    "start = time.process_time()\n"
    "import seifert_torsion\n"
    "from seifert_torsion import cli\n"
    "cli.build_parser()\n"
    "print(time.process_time() - start)\n"
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    import seifert_torsion  # from the checkout's src/, which run.py puts on PYTHONPATH

    src = Path.cwd() / "src"
    if not Path(seifert_torsion.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported {seifert_torsion.__file__}, not the checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, NoTrace, Tally

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    untraced = NoTrace()
    run_units(workload, workload.passes(0), Tally(), untraced)  # warm-up

    result = {"version": seifert_torsion.__version__}
    if args.trace:
        result.update(traced_run(workload, untraced, args.workdir))
    else:
        result.update(timed_run(workload, untraced, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def timed_run(workload, untraced, seconds: float) -> dict:
    """Whole passes for `seconds`, with the machine's speed sampled after
    every unit and the set-up launches spread between passes.  The speed of
    the shared machine drifts by a third within seconds, so samples taken in
    one burst would see one moment of it while the passes see the whole run."""
    from workloads import Tally

    setup_seconds()  # the first launch writes the bytecode cache
    reference_seconds()
    setup: list[float] = []
    reference: list[float] = []
    tally = Tally()
    passes = 0
    aside = 0.0  # wall time spent sampling, not counted in the run length
    start = time.perf_counter()
    while time.perf_counter() - start - aside < seconds or tally.attempted < MIN_ITEMS:
        for unit in workload.passes(passes):
            workload.run_unit(unit, tally, untraced)
            sampled = time.perf_counter()
            reference.append(reference_seconds())
            aside += time.perf_counter() - sampled
        passes += 1
        elapsed = time.perf_counter() - start - aside
        while len(setup) < SETUP_LAUNCHES * min(1.0, elapsed / seconds):
            launched = time.perf_counter()
            setup.append(setup_seconds())
            aside += time.perf_counter() - launched
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_seconds())
    n = tally.attempted
    return {
        "passes": passes,
        "wall_s": time.perf_counter() - start - aside,
        "attempted": n,
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "setup_s": setup,
        "busy_s": tally.busy_s,
        "p50_s": tally.percentile(0.5),
        "p95_s": tally.percentile(0.95),
        "beyond_p95": n - math.ceil(0.95 * n),
        "machine_speed": REFERENCE_NOMINAL_S / statistics.fmean(reference),
        "speed_samples": len(reference),
    }


def reference_seconds() -> float:
    """CPU time of a fixed piece of stdlib work that uses no package code:
    exact fractions, big integers, float trigonometry, dicts and JSON, the
    operations the package spends its time in."""
    start = time.process_time()
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k % 7 + 1, k)
    n = 1
    for k in range(1, 1500):
        n = (n * (2 * k + 1) + k) % (1 << 3000)
    table = {str(k): math.cos(k) / k for k in range(1, 4000)}
    json.loads(json.dumps(table))
    return time.process_time() - start


def setup_seconds() -> float:
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def run_units(workload, units, tally, tracer) -> None:
    for unit in units:
        workload.run_unit(unit, tally, tracer)


def traced_run(workload, untraced, workdir: Path) -> dict:
    from seifert_torsion.dedekind import _cotangent_table
    from tracing import Tracer, calls_by_kind, per_layer_metrics
    from workloads import Tally

    # Each round runs one pass untraced and then the same pass traced, so
    # that slow drift in machine speed cancels out of the overhead ratio.
    # Inputs are generated before timing and outside the trace.
    rounds = [list(workload.passes(index)) for index in range(TRACE_ROUNDS)]
    tracer, tally = Tracer(), Tally()
    untraced_cpu = traced_cpu = traced_wall = 0.0
    hits = misses = 0
    for units in rounds:
        start = time.process_time()
        run_units(workload, units, Tally(), untraced)
        untraced_cpu += time.process_time() - start
        before = _cotangent_table.cache_info()
        with tracer:
            start, start_cpu = time.perf_counter(), time.process_time()
            run_units(workload, units, tally, tracer)
            traced_wall += time.perf_counter() - start
            traced_cpu += time.process_time() - start_cpu
        after = _cotangent_table.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        tracer.scan_snf_results()
    tracer.write_spans(workdir / "spans.csv")
    return {
        "passes": TRACE_ROUNDS,
        "wall_s": traced_wall,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "spans": len(tracer.spans),
        "per_layer": per_layer_metrics(
            tracer, tally.attempted, traced_wall, traced_cpu / untraced_cpu, hits, misses
        ),
        "calls_by_kind": calls_by_kind(tracer),
    }


if __name__ == "__main__":
    sys.exit(main())
