#!/usr/bin/env python3
"""Builds and runs the fleet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles the library from src/) under .bench_build/, or under
$CARGO_TARGET_DIR when that is set, then runs one workload in a fresh
driver process and relays its output. The last line of standard output
is the driver's JSON result, checked against BENCHMARK.json: with
--trace 0 it must hold exactly the end-to-end metrics, with --trace 1
exactly the per-layer ones.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(step)} exited {done.returncode}")
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, declared):
    """Returns a list of problems with one driver result line."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"declared metric {name} is missing")
    for name in sorted(set(metrics) & set(declared)):
        if metrics[name].get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}"
                            f", declared {declared[name]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "fleet",
                                       "deployment_engine.h")):
        return fail("no library sources next to perfbench/; run from a "
                    "checkout of the repository")
    try:
        out = build()
    except (OSError, RuntimeError) as err:
        return fail(f"build failed: {err}")

    command = [os.path.join(out, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-root", os.path.join(out, "state"),
               "--spans-dir", os.path.join(out, "spans")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        if lines[-1]:
            print(lines[-1])
        return fail(f"driver exited {done.returncode}")
    problems = check_result(lines[-1], declared_metrics(args.trace))
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
