#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lands in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run configures and compiles the
library layers, later runs only check that the binary is up to date. Build
output goes to stderr, so the last stdout line is always the benchmark's
JSON result. Exits non-zero, printing no result, when the sources are not
there or the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(bench_dir, repo_root):
    if not os.path.isfile(os.path.join(repo_root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(repo_root, "src")):
        sys.exit("perfbench: no repository sources next to %s" % bench_dir)
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    binary = build(bench_dir, os.path.dirname(bench_dir))
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % run.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: malformed result line: %s" % lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
