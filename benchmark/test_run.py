#!/usr/bin/env python3
"""Checks the result lines of run.py against BENCHMARK.json at smoke sizes.

    python3 benchmark/test_run.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class RunTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_wrong_reference_is_not_correct(self):
        code, lines = run("qcd_halo", 0, "--break-reference")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_unknown_workload_prints_no_result(self):
        code, lines = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
