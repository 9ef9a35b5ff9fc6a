#!/usr/bin/env python3
"""Builds wharf's end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a wharf checkout.  The first call configures and
builds perfbench/ (the library, the `wharf` CLI used as sweep worker and
the `perfbench` program) into .bench_build/ (or $CARGO_TARGET_DIR); later
calls only re-check the build.  Build output goes to stderr, so the last
line of stdout is the program's JSON result.  Workloads and metrics are
described in perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(reason):
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("src/engine/engine.hpp", "tools/main.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"wharf sources not found ({needed} is missing); run from a wharf checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
