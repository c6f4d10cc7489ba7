#!/usr/bin/env python3
"""Builds the COBRA benchmark binary from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 10 --trace 0

The binary is compiled with CMake into .bench_build/perfbench on first use.
Build output goes to stderr; the last line of stdout is the binary's JSON
result.  Exits non-zero, without a result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cobra_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no COBRA sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan_cold", "scan_shared", "zipf_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    if done.returncode != 0:
        sys.exit(f"perfbench: cobra_perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: cobra_perfbench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
