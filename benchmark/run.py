#!/usr/bin/env python3
"""Builds the REMI benchmark from source and runs one workload.

Run from the repository root:

    python3 benchmark/run.py --workload serve_lookup --seed 1 --seconds 20 --trace 0

The build (Release, into .bench_build/) is incremental; the first run in a
fresh checkout compiles the library, remi_server and remi_bench. Build
output goes to stderr, so the last line of stdout is always the result
object printed by remi_bench. Without the repository's sources next to
this directory the build fails and the script exits nonzero.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "remi_bench", "remi_server"],
        stdout=sys.stderr,
        check=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 2
    command = [
        os.path.join(BUILD, "remi_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--config", os.path.join(HERE, "workloads.json"),
        "--server", os.path.join(BUILD, "remi", "remi_server"),
        "--out", BUILD_ROOT,
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
