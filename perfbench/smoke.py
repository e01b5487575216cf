#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json with
tiny budgets (run.py --smoke), untraced and traced, and checks that each
run exits 0; prints as its last line a JSON object with exactly the keys
correct, attempted, failed and metrics; passes its output checks; reports
exactly the metrics BENCHMARK.json names for that mode, each with its unit
and a finite value; and leaves no borg_worker process behind. Exits 1 on
any failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = str(ROOT / ".bench_build" / "perfbench" / "borg_worker")


def live_workers():
    """Pids of running processes executing this checkout's borg_worker."""
    pids = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            argv0 = (proc / "cmdline").read_bytes().split(b"\0")[0].decode()
        except OSError:
            continue
        if argv0 == WORKER:
            pids.append(int(proc.name))
    return pids


def check_run(spec, workload, trace):
    """Returns a list of problems with one smoke run (empty = passed)."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as error:
        return [f"no JSON result line: {error}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output checks failed:\n" + proc.stderr[-2000:])
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{name}: unit {metric.get('unit')}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            leftover = live_workers()
            if leftover:
                problems.append(f"borg_worker left running: {leftover}")
            status = "ok" if not problems else "FAILED"
            print(f"smoke {workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
