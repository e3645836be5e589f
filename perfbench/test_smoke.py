#!/usr/bin/env python3
"""The benchmark's own tests: run every workload at the smoke size.

    python3 -m unittest perfbench/test_smoke.py

For each workload in BENCHMARK.json, an untraced and a traced run must pass
the correctness gate with no failed row, and report exactly the end-to-end
(untraced) or per-layer (traced) metrics BENCHMARK.json names, with their
units and finite values. A copy of the benchmark without the program next to
it must fail without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):

    def check(self, workload, trace, names):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(set(res["metrics"]), set(names))
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], names[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, names)

    def test_traced_runs_report_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, names)

    def test_fails_without_the_program(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__", ".bsp"))
            p = run(BENCH["workloads"][0]["name"], 0, cwd=bare,
                    script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertFalse(p.stdout.strip().endswith("}"), p.stdout)


if __name__ == "__main__":
    unittest.main()
