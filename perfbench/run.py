#!/usr/bin/env python3
"""Build and run the ftagg benchmark.

Run from the root of an ftagg checkout:

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

The benchmark is built from source with dune into .bench_build/ (the
shared dune cache is disabled, so nothing is written outside the
checkout) and then run with the same arguments.  Its last line of
standard output is the result as one JSON object.  Build output goes to
standard error.  The exit code is the benchmark's, or non-zero when the
checkout cannot be built.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run this from the root of an ftagg checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
         "--profile", "release", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
