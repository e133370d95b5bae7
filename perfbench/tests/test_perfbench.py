"""Tests of the benchmark itself: names, correctness gate, failure handling.

    python3 -m unittest discover -s perfbench/tests -v

The first test run builds the driver into .bench_build/ (about a minute).
The workloads run in their --tiny shape, a few PEs each.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny_run(workload, trace, *extra):
    """Runs the driver on a tiny configuration; returns the RESULT object
    and the driver's standard output."""
    cmd = [run.DRIVER, "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, env=run.clean_env(), capture_output=True, text=True,
                          timeout=300, check=True)
    results = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    assert len(results) == 1, proc.stdout
    return json.loads(results[0][len("RESULT "):]), proc.stdout


def tiny(workload, trace, *extra):
    return tiny_run(workload, trace, *extra)[0]


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not run.build(run.clean_env()):
            raise RuntimeError("perfbench driver failed to build")

    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                        self.assertEqual(zero, [], "end-to-end metrics must never read 0")

    def test_tiny_configuration_passes_every_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload, 1)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(metrics["dtu.drops"]["value"], 0)
                self.assertEqual(metrics["obs.spans_dropped"]["value"], 0)
                share = metrics["kernel.spanning_share"]["value"]
                if workload == "sqlite_spanning":
                    self.assertGreater(share, 0.5)
                else:
                    self.assertEqual(share, 0)

    def test_wrong_cap_op_expectation_trips_the_gate(self):
        good = tiny("postmark_local", 0)
        bad = tiny("postmark_local", 0, "--corrupt-expectation")
        self.assertTrue(good["correct"])
        self.assertEqual(good["failed"], 0)
        self.assertFalse(bad["correct"])
        self.assertGreater(bad["attempted"], 0)
        self.assertEqual(bad["failed"], bad["attempted"])  # error_rate 1.0

    def test_timed_reps_leave_engine_workers_their_cpus(self):
        if len(os.sched_getaffinity(0)) < 2:
            self.skipTest("needs at least 2 CPUs")
        result, stdout = tiny_run("sqlite_spanning", 0, "--threads", "2")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        match = re.search(r"^engine: (\d+) thread\(s\), timed reps pinned to (\d+) CPU\(s\) at "
                          r"a time, (\d+) worker thread\(s\), each allowed (\d+) CPU\(s\)$",
                          stdout, re.MULTILINE)
        self.assertIsNotNone(match, stdout)
        threads, pinned, workers, allowed = map(int, match.groups())
        self.assertEqual(threads, 2)
        self.assertEqual(pinned, 2)
        self.assertEqual(workers, 1)  # the coordinating thread is worker 0
        self.assertGreaterEqual(allowed, 2)

    def test_run_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "postmark_local", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
