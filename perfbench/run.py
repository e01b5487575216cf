#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library sources, borg_worker
and the perfbench driver into .bench_build/perfbench (a no-op when up to
date), runs the driver, and forwards its output: the last line of stdout is
the JSON result. Exits non-zero, printing no result, if the build or the
run fails or the run exceeds its time limit; every process the run started
(the driver and any borg_worker it started) is killed and reaped first.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (first time) and builds the driver; output to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run(argv, timeout=RUN_TIMEOUT_S):
    """Runs the driver in its own process group; returns its stdout, or
    None if it failed or timed out (the whole group is killed then)."""
    proc = subprocess.Popen([str(BINARY), *argv], stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
        print(f"run.py: driver exceeded {timeout} s", file=sys.stderr)
    finally:
        # The group holds the driver and any borg_worker it started; wait
        # until every member is gone, not just the driver.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    if out is None or proc.returncode != 0:
        return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for smoke.py")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    out = run(argv)
    if out is None:
        print("run.py: driver failed", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
