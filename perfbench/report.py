#!/usr/bin/env python3
"""Traced runs of every workload at the default and a held-out seed.

    python3 perfbench/report.py [--seconds 20] [--seeds 1,2]

Runs run.py --trace 1 once per (workload, seed), each in its own process,
and prints:
  * each run's verdict (output and replay checks, failed targets);
  * the exact counts of every seed side by side: simulated device
    cycles and instructions per target must not depend on timing, and
    two seeds differ only where their seeded inputs do;
  * the layer figures ROADMAP.md's "Measured at re-anchor" section
    quotes: simulator MIPS per ISA, PUF enrollment per device, storage
    recovery per device, WAL fsyncs per target, and the share of target
    time spent in the device-side apply (fleet.dispatch_share).
Exits non-zero if any run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mibench_rollout", "delta_train", "wire_train")

EXACT = ("sim.instructions_per_target", "sim.cycles_per_target",
         "core.hde_cycles_per_target")

REANCHOR = (
    ("simulator MIPS, RV64GC", "mibench_rollout", "sim.mips.rv64gc"),
    ("simulator MIPS, RV32I", "mibench_rollout", "sim.mips.rv32i"),
    ("PUF enrollment, ms/device", "mibench_rollout",
     "puf.enroll_ms_per_device"),
    ("storage recovery, ms/device", "mibench_rollout",
     "store.recovery_ms_per_device"),
    ("WAL fsyncs per target", "mibench_rollout", "store.fsyncs_per_target"),
    ("device-apply share of target time", "mibench_rollout",
     "fleet.dispatch_share"),
    ("device-apply share of target time", "delta_train",
     "fleet.dispatch_share"),
    ("device-apply share of target time", "wire_train",
     "fleet.dispatch_share"),
)


def traced_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seeds", default="1,2",
                        help="comma-separated; the first is the default seed")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {}
    ok = True
    for workload in WORKLOADS:
        for seed in seeds:
            result = traced_run(workload, seed, args.seconds)
            results[workload, seed] = result
            if result is None:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            clean = result["correct"] and result["failed"] == 0
            ok = ok and clean
            print(f"{workload} seed {seed}: "
                  f"{'clean' if clean else 'NOT CLEAN'} "
                  f"(correct={result['correct']}, "
                  f"{result['failed']} of {result['attempted']} failed)")

    def value(workload, seed, name):
        result = results.get((workload, seed))
        return None if result is None else result["metrics"][name]["value"]

    header = "".join(f"{'seed ' + str(s):>18}" for s in seeds)
    print(f"\nExact counts per delivered target\n{'':44}{header}")
    for workload in WORKLOADS:
        for name in EXACT + ("device_cycles",):
            cells = []
            for seed in seeds:
                if name == "device_cycles":
                    parts = [value(workload, seed, n) for n in EXACT[1:]]
                    v = None if None in parts else sum(parts)
                else:
                    v = value(workload, seed, name)
                cells.append("n/a" if v is None else f"{v:.3f}")
            print(f"{workload:17}{name:27}" +
                  "".join(f"{c:>18}" for c in cells))

    print(f"\nRe-anchor figures (seed {seeds[0]})")
    for label, workload, name in REANCHOR:
        v = value(workload, seeds[0], name)
        shown = "n/a" if v is None else f"{v:.4g}"
        print(f"  {label:36} {workload:17} {shown:>10}   ({name})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
