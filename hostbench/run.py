#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

    python3 hostbench/run.py --workload fig5 --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark binary is built with CMake into
.bench_build/hostbench (reused when up to date); its standard output, whose
last line is the JSON result, is passed through. Build output goes to
standard error. Any extra arguments go to the binary (for example
--write-expected, which regenerates hostbench/expected/<workload>.txt).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("fig5", "micro", "tools")


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kernel", "machine.hpp")):
        fail("simulator sources (src/) not found next to hostbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(HERE, "expected", args.workload + ".txt"),
        "--trace-out", os.path.join(BUILD, f"trace-{args.workload}.json"),
    ] + extra
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
