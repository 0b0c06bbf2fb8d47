#!/usr/bin/env python3
"""Build the perfbench binary from source (a no-op once built) and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_start|bulk_eval|serve_mix \
        --seed N --seconds S --trace 0|1 [--quick]

Everything the benchmark writes (build tree, JIT caches, compiler temp
files, trace files) stays under .bench_build/ in the checkout.  The
binary's stdout is passed through, so the last line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build(env):
    """Configure and build; build output goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            return False
    return True


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
