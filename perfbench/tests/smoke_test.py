#!/usr/bin/env python3
"""Smoke-sized run of every workload, untraced and traced: each must pass
its oracles and print every metric BENCHMARK.json names, with its unit.

    python3 perfbench/tests/smoke_test.py <path to nfsbench>
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BINARY = None


class SmokeRun(unittest.TestCase):
    def run_bench(self, workload, trace):
        with tempfile.TemporaryDirectory() as work:
            out = subprocess.run(
                [BINARY, "--workload", workload, "--seed", "3", "--seconds",
                 "0.5", "--trace", str(trace), "--smoke", "--work-dir", work],
                capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().split("\n")[-1])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = self.run_bench(w["name"], trace)
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(res["failed"], 0)
                    metrics = res["metrics"]
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    self.assertEqual(sorted(metrics), sorted(want))
                    for name, unit in want.items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(metrics[name]["value"],
                                              (int, float), name)

    def test_unknown_workload_fails_without_a_result(self):
        out = subprocess.run(
            [BINARY, "--workload", "nope", "--seed", "0", "--seconds", "1",
             "--trace", "0", "--smoke"], capture_output=True, text=True,
            timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()
