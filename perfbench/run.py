#!/usr/bin/env python3
"""Builds the IMCAT libraries and the benchmark driver, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <train_limcat|eval_fullrank|serve_online>
                             --seed <n> --seconds <s> --trace <0|1>

The libraries are built by the repository's own CMake project (added to the
driver's project in perfbench/CMakeLists.txt) into .bench_build/; an
up-to-date build is a no-op. Build output goes to stderr. The driver prints
one JSON result line, which is passed through as the last line of stdout.
Scratch files and span dumps go to .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: no IMCAT sources next to perfbench/ (expected "
              "CMakeLists.txt and src/ at %s)" % ROOT, file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    built = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [
        driver,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", OUT_DIR,
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = result.stdout.decode().strip().splitlines()
    if result.returncode != 0 or not lines:
        print("perfbench: driver failed with code %d" % result.returncode, file=sys.stderr)
        return 1
    print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
