#!/usr/bin/env python3
"""Self-test of the benchmark: run every workload at its smallest size
(--quick, one-second windows), untraced and traced, and check the result
line against BENCHMARK.json — exact keys, a correct run with no failed
operations, and every metric the file names emitted with its unit and
nothing else.  Also checks that a tree holding only BENCHMARK.json and the
benchmark's own files fails cleanly (non-zero, no result line).

Usage, from the root of a checkout:  python3 perfbench/selftest.py
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s" % (where, result.get("correct"),
                                                    result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (where, result.get("attempted")))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            errors.append("%s: missing metric %s" % (where, name))
        elif got[name].get("unit") != unit:
            errors.append("%s: %s has unit %r, want %r" % (where, name, got[name].get("unit"),
                                                            unit))
        elif not math.isfinite(got[name].get("value", float("nan"))):
            errors.append("%s: %s is not a finite number" % (where, name))
    for name in set(got) - set(want):
        errors.append("%s: unexpected metric %s" % (where, name))
    print("%-24s %s (%d metrics)" % (where, "ok" if not errors else "FAIL", len(got)), flush=True)
    return errors


def check_bare_tree(spec):
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["bare tree: exit %d, last line %r" % (proc.returncode, lines[-1:])]
    print("%-24s ok (exit %d)" % ("bare tree", proc.returncode))
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
    errors += check_bare_tree(spec)
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
