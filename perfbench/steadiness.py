#!/usr/bin/env python3
"""Steadiness report: repeats each workload and compares the spread of
every end-to-end metric with the bound BENCHMARK.json sets.

    python3 perfbench/steadiness.py [--workloads a,b]

Run from the root of a checkout. Runs each workload ten times, with seeds
1 to 10. For each metric it prints the median, the quartiles
(statistics.quantiles, n=4), min and max, and the spread
(Q3 - Q1) / median next to the bound and a third of it. Exits 1 if a run
fails or any spread exceeds its bound, setup_s excepted: its bound limits
how far its median may move between two sets of runs, which one set
cannot show, so its spread is flagged but does not fail the report.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", file=sys.stderr)
                bad = True
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                file=sys.stderr, flush=True)

        print(f"\n{workload} ({RUNS} runs)")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6} {'bound/3':>7}")
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric["bound"]
            gated = metric["name"] != "setup_s"
            flag = ("" if spread <= bound else
                    "  OVER BOUND" if gated else "  over bound (not gated)")
            bad |= gated and spread > bound
            print(f"  {metric['name']:26} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(v):12.6g} {max(v):12.6g} {spread:8.4f} "
                  f"{bound:6.3f} {bound / 3:7.4f}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
