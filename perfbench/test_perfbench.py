#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, metric names, failure without
sources. Run from anywhere: python3 perfbench/test_perfbench.py"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def export_instance(seed):
    return subprocess.run([str(run.DRIVER), "--export-instance", "--seed", str(seed)],
                          capture_output=True, check=True).stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "perfbench build failed"

    def test_same_seed_same_instance_other_seed_differs(self):
        first = export_instance(7)
        self.assertGreater(len(first), 1000)
        self.assertEqual(first, export_instance(7))
        self.assertNotEqual(first, export_instance(8))

    def test_same_seed_same_makespan(self):
        a = bench("sim_montage", 7, 1)
        b = bench("sim_montage", 7, 1)
        self.assertTrue(a["correct"] and b["correct"])
        self.assertGreater(a["metrics"]["sim_makespan_s"]["value"], 0)
        self.assertEqual(a["metrics"]["sim_makespan_s"], b["metrics"]["sim_makespan_s"])

    def test_listed_workloads_run(self):
        listed = [w["name"] for w in SPEC["workloads"]]
        self.assertTrue(set(listed) <= set(run.WORKLOADS))

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, 3, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)

    def test_fails_without_sources(self):
        bare = run.ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for f in run.HERE.iterdir():
                if f.is_file():
                    shutil.copy(f, bare / "perfbench")
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cmd_window",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
