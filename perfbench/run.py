"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`, and nothing is built.  With --trace 0 it reports the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Scratch files live under `.perfbench_work/` in the checkout, which also
keeps the last result of every workload, seed and mode, and the spans of
the last traced run of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch-small", "dedekind-grid", "homology-wide", "partition-classes")
WORKER_TIMEOUT_S = 150


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "seifert_torsion" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    work = root / ".perfbench_work"
    run_dir = work / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        # bytecode first, so that no run's peak RSS includes compiling
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
            cwd=root, env=env, capture_output=True, timeout=WORKER_TIMEOUT_S, check=True,
        )
        worker = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", str(run_dir),
            ],
            cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if worker.returncode != 0:
            sys.stderr.write(worker.stderr)
            print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        raw = json.loads(worker.stdout.splitlines()[-1])
        if args.trace:
            shutil.copyfile(run_dir / "spans.csv", work / f"spans-{args.workload}.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    environment = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "package": raw["version"],
        "commit": git_commit(root),
    }
    if args.trace:
        metrics, measured = raw["per_layer"], None
        notes = [f"traced {raw['passes']} passes, {raw['spans']} spans"]
    else:
        metrics, notes, measured = end_to_end(raw)
    attempted, failed = raw["attempted"], raw["failed"]
    notes.append(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} items)")
    if raw["first_failure"]:
        notes.append(f"first failure: {raw['first_failure']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": metrics,
    }
    if measured:
        record["machine_speed"] = raw["machine_speed"]
        record["measured"] = measured
    if args.trace:
        record["calls_by_kind"] = raw["calls_by_kind"]
    results = work / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in environment.items()))
    for key, metric in metrics.items():
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    if args.trace:
        for kind, calls in raw["calls_by_kind"].items():
            shown = ", ".join(f"{fid} {n:g}" for fid, n in calls.items())
            print(f"  calls per {kind} item: {shown}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(raw: dict) -> tuple[dict, list[str], dict]:
    """The end-to-end metrics, with every time taken to the reference speed:
    multiplied by the run's machine speed, the reference work's nominal CPU
    time over its mean measured CPU time.  Also the metrics as measured."""
    n, setup, speed = raw["attempted"], raw["setup_s"], raw["machine_speed"]
    measured = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (n / raw["busy_s"], "1/s"),
        "latency_p50_ms": (1e3 * raw["p50_s"], "ms"),
        "latency_p95_ms": (1e3 * raw["p95_s"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    scale = {"s": speed, "ms": speed, "1/s": 1 / speed, "MB": 1.0}
    metrics = {k: {"value": v * scale[u], "unit": u} for k, (v, u) in measured.items()}
    notes = [
        f"machine speed {speed:.4f} of the reference, from {raw['speed_samples']} samples; "
        "times below are at reference speed",
        f"setup_s is the median of {len(setup)} fresh-interpreter launches spread over the run",
        f"{n} items in {raw['passes']} passes: {raw['busy_s']:.3f} s CPU in package "
        f"calls, {raw['wall_s']:.3f} s wall with checks",
        f"latency samples {n}, {raw['beyond_p95']} beyond p95",
        "as measured: " + "  ".join(f"{k} {v:.6g}" for k, (v, _) in measured.items()),
    ]
    return metrics, notes, {k: v for k, (v, _) in measured.items()}


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            # look for .git in the checkout only, never in a directory above it
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
