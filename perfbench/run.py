#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: explore-uni, explore-mp, certify-faults, sample-pct (see
BENCHMARK.json for why each is there). The executable is built by dune in
a release-profile build directory of its own, _perfbench_build/, with the
dune cache off so nothing is written outside the checkout. It then runs
with the same arguments; its exit code is passed through, and the last
line of standard output is the result JSON. Build output goes to
standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/bench/main.exe"]
    try:
        build = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
