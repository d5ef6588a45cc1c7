#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at tiny input sizes.

    python3 perfbench/test_perfbench.py

Builds like run.py does (into .bench_build/) and checks that:
  - every metric BENCHMARK.json names is emitted, with its unit, by each
    workload's plain and traced runs, and the result line has exactly
    the keys the benchmark contract fixes;
  - a planted wrong reference counts as a failed session instead of
    crashing the run;
  - the output fingerprint is a function of the seed;
  - without the sources beside it the benchmark fails fast and prints
    no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("session-ocean", "serve-long", "serve-mix")


def run(workload, seed=5, trace=0, extra=(), cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = result_of(run(workload, trace=trace))
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    if trace == 0:
                        for m in result["metrics"].values():
                            self.assertGreater(m["value"], 0)

    def test_planted_wrong_reference_is_a_failed_session(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = result_of(run(
                    workload, extra=("--plant-wrong-reference",)))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(result["attempted"], result["failed"])

    def test_fingerprint_follows_the_seed(self):
        def fingerprint(seed):
            _, lines = result_of(run("serve-mix", seed=seed))
            return [l for l in lines if l.startswith("fingerprint ")][0]

        self.assertEqual(fingerprint(7), fingerprint(7))
        self.assertNotEqual(fingerprint(7), fingerprint(8))

    def test_fails_fast_without_sources(self):
        lone = os.path.join(ROOT, ".bench_build", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        try:
            proc = run("session-ocean", cwd=lone,
                       script=os.path.join(lone, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
