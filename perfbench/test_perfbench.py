#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then checks:
  * the C++ statistics helpers (perfbench_selftest): medians, the
    nearest-rank tail quantile with its ten-samples-beyond rule, and
    span self time;
  * that every metric the driver can emit is declared in BENCHMARK.json
    with the same unit, and every declared metric is emitted;
  * run.py's validation of a result line.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the module under test sits beside this file)

BUILD = None


def setUpModule():
    global BUILD
    BUILD = run.build()


class SelfTest(unittest.TestCase):
    def test_statistics_helpers(self):
        done = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


class DeclaredMetrics(unittest.TestCase):
    def emitted(self):
        done = subprocess.run([os.path.join(BUILD, "perfbench_driver"),
                               "--list-metrics"],
                              capture_output=True, text=True, check=True)
        modes = {0: {}, 1: {}}
        for line in done.stdout.splitlines():
            mode, name, unit = line.split()
            self.assertNotIn(name, modes[int(mode)], f"{name} listed twice")
            modes[int(mode)][name] = unit
        return modes

    def test_every_emitted_metric_is_declared(self):
        modes = self.emitted()
        for trace in (0, 1):
            declared = run.declared_metrics(trace)
            self.assertEqual(modes[trace], declared,
                             f"--trace {trace} metrics differ from "
                             "BENCHMARK.json")

    def test_declared_names_are_unique(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            bench = json.load(f)
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))


class CheckResult(unittest.TestCase):
    DECLARED = {"a_ms": "ms", "b": "count"}

    def line(self, metrics, **fields):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}
        result.update(fields)
        return json.dumps(result)

    def test_accepts_exactly_the_declared_metrics(self):
        line = self.line({"a_ms": {"value": 1.5, "unit": "ms"},
                          "b": {"value": 2, "unit": "count"}})
        self.assertEqual(run.check_result(line, self.DECLARED), [])

    def test_rejects_undeclared_missing_and_wrong_unit(self):
        line = self.line({"a_ms": {"value": 1.5, "unit": "s"},
                          "extra": {"value": 2, "unit": "count"}})
        problems = " ".join(run.check_result(line, self.DECLARED))
        self.assertIn("extra is not declared", problems)
        self.assertIn("b is missing", problems)
        self.assertIn("a_ms has unit s", problems)

    def test_rejects_bad_counts_and_non_json(self):
        line = self.line({"a_ms": {"value": 1, "unit": "ms"},
                          "b": {"value": 2, "unit": "count"}}, attempted=0)
        self.assertTrue(run.check_result(line, self.DECLARED))
        self.assertTrue(run.check_result("not json", self.DECLARED))


if __name__ == "__main__":
    unittest.main()
