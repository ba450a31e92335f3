"""Run several workloads over several seeds and summarise every metric.

    python3 perfbench/report.py --seeds 1-10 --seconds 20
    python3 perfbench/report.py --seeds 1 --trace 1 --workloads batch-small

Each run is a separate `run.py` process.  For every workload and metric the
summary gives the median over seeds, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median.  failed_share and the sample
count (items per run) are printed next to them.  --out writes the summary,
with the environment of the runs, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, WORKLOADS


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    environment = None
    for workload in args.workloads:
        records = []
        for seed in args.seeds:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"error: {workload} seed {seed} exited {done.returncode}", file=sys.stderr)
                return 1
            name = f"{workload}-seed{seed}-trace{args.trace}.json"
            records.append(json.loads((Path.cwd() / ".perfbench_work" / "results" / name).read_text()))
        environment = records[-1]["environment"]
        summary[workload] = summarise(records)
        print_workload(workload, summary[workload])

    if args.out:
        args.out.write_text(json.dumps({
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": args.seeds,
            "environment": environment,
            "workloads": summary,
        }, indent=2) + "\n")
    return 0


def summarise(records: list[dict]) -> dict:
    metrics = {}
    for name, metric in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        entry = {"unit": metric["unit"], "median": statistics.median(values), "values": values}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["spread"] = (q3 - q1) / entry["median"]
        metrics[name] = entry
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "runs": len(records),
        "samples_per_run": statistics.median(r["attempted"] for r in records),
        "failed_share": failed / attempted,
        "failed": failed,
        "attempted": attempted,
        "metrics": metrics,
    }


def print_workload(workload: str, entry: dict) -> None:
    print(f"{workload}: {entry['runs']} runs, median {entry['samples_per_run']:g} samples a run")
    for name, m in entry["metrics"].items():
        spread = f"spread {m['spread']:.3f}" if "spread" in m else ""
        quartiles = f"q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:<48} {m['median']:>12.6g} {m['unit']:<10} {quartiles}  {spread}")
    print(f"  {'failed_share':<48} {entry['failed_share']:>12.6g} share      "
          f"({entry['failed']} of {entry['attempted']} items)")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
