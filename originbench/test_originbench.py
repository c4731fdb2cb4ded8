"""Tests of the origin benchmark itself: a short smoke run of every workload,
untraced and traced, and the oracle self-test. Run from the repository root:

    python3 -m unittest discover -s originbench -p 'test_*.py'
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


def last_lines(out, n):
    return [json.loads(line) for line in out.stdout.strip().splitlines()[-n:]]


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        # hot runs too, though BENCHMARK.json does not list it (see README.md).
        for workload in ["hot"] + [w["name"] for w in bench["workloads"]]:
            for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench("--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    record, result = last_lines(out, 2)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({m["name"] for m in wanted}, set(result["metrics"]))
                    for metric in wanted:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
                    self.assertEqual(record["seed"], 7)
                    for key in ("nproc", "cpu_model", "compiler", "build_type"):
                        self.assertIn(key, record["stamp"])


class OracleTest(unittest.TestCase):
    def test_tampered_content_length_counts_as_failed(self):
        out = run_bench("--self-test", "--seed", "3")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr[-2000:])
        (verdict,) = last_lines(out, 1)
        self.assertEqual(verdict["honest_failed"], 0)
        self.assertEqual(verdict["tampered_failed"], 1)


if __name__ == "__main__":
    unittest.main()
