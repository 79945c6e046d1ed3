"""Self-tests of the repository benchmark.

Run from the repository root:

    python3 -m unittest discover -s rtbench/tests -v

Builds the benchmark program and its C++ self-tests (rtbench_selftest:
traced assembly vs Experiment, sampling without perturbation, paper-shape
reproduction, failure accounting), runs them, and checks the program's
result line against BENCHMARK.json for every workload in both trace modes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (rtbench/run.py: the benchmark command)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


class RtbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # A broken build fails every test of the class rather than skipping it.
        if not run.build(("rtbench", "rtbench_selftest")):
            raise RuntimeError("benchmark build failed (see standard error)")
        cls.spec = load_benchmark_json()

    def test_cpp_selftests_pass(self):
        binary = os.path.join(run.BUILD_DIR, "rtbench_selftest")
        result = subprocess.run([binary], capture_output=True, text=True, timeout=300,
                                check=False)
        self.assertEqual(result.returncode, 0, result.stdout[-4000:] + result.stderr[-2000:])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = subprocess.run(
                        [run.BINARY, "--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)],
                        capture_output=True, text=True, timeout=170, check=False)
                    self.assertEqual(result.returncode, 0, result.stderr)
                    line = result_line(result.stdout)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], result.stdout[-3000:])
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    printed = {name: m["unit"] for name, m in line["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, m in line["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertEqual(set(m), {"value", "unit"}, name)

    def test_bad_arguments_are_rejected(self):
        result = subprocess.run([run.BINARY, "--workload", "nope", "--seed", "1", "--seconds",
                                 "1", "--trace", "0"], capture_output=True, text=True,
                                timeout=60, check=False)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")

    def test_fails_without_the_repository_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: the build cannot
        # find src/, so the command must fail without printing a result.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "rtbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, "rtbench/run.py", "--workload", "mc_video", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170, check=False)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
