#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 repobench/run.py --workload pretrain_wide --seed 1 --seconds 10 --trace 0

The first call configures and builds `repobench` (CMake, Release) into
`.bench_build/` at the repository root; later calls only rebuild what
changed. The build log goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 when every
correctness gate passed, nonzero otherwise (or when the build fails).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("pretrain_wide", "qapollo_accum", "ddp_zero1", "serve_open")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("repobench: library sources (src/) not found next to "
              "repobench/; run from a full checkout", file=sys.stderr)
        return None
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "repobench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("repobench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(cmake_dir, "repobench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
