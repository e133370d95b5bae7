"""Unit tests for tools/bench_compare.py (stdlib unittest).

Run: python3 -m unittest discover -s tests -p 'bench_compare_test.py'
(ctest registers it as bench_compare_test).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


def write_bench(directory, filename, rows):
    """Writes a google-benchmark JSON file with {name: (real_time, counters)}."""
    benchmarks = []
    for name, (real_time, counters) in rows.items():
        entry = {"name": name, "run_type": "iteration", "real_time": real_time,
                 "cpu_time": 1.0, "iterations": 1}
        entry.update(counters)
        benchmarks.append(entry)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(json.dumps({"benchmarks": benchmarks}))


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.base = self.root / "base"
        self.new = self.root / "new"

    def tearDown(self):
        self._tmp.cleanup()

    def run_compare(self, *extra):
        return self.run_compare_output(*extra)[0]

    def run_compare_output(self, *extra):
        proc = subprocess.run([sys.executable, str(SCRIPT), str(self.base), str(self.new),
                               *extra], capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def modeled(self, base_time, new_time, base_counters=None, new_counters=None):
        write_bench(self.base, "BENCH_fig.json", {"BM_A": (base_time, base_counters or {})})
        write_bench(self.new, "BENCH_fig.json", {"BM_A": (new_time, new_counters or {})})

    def test_identical_modeled_run_passes(self):
        self.modeled(100.0, 100.0, {"ops": 5.0}, {"ops": 5.0})
        self.assertEqual(self.run_compare(), 0)

    def test_modeled_slowdown_fails(self):
        self.modeled(100.0, 100.001)
        self.assertEqual(self.run_compare(), 1)

    def test_modeled_speedup_fails(self):
        self.modeled(100.0, 99.999)
        self.assertEqual(self.run_compare(), 1)

    def test_last_ulp_rounding_passes(self):
        self.modeled(100.0, 100.0 * (1.0 + 1e-9))
        self.assertEqual(self.run_compare(), 0)

    def test_counter_change_fails(self):
        self.modeled(100.0, 100.0, {"ops": 5.0}, {"ops": 6.0})
        self.assertEqual(self.run_compare(), 1)

    def test_declared_rebaseline_passes_only_when_moved(self):
        self.modeled(100.0, 90.0)
        self.assertEqual(self.run_compare("--allow-rebaselined", "BENCH_fig.json"), 0)
        self.modeled(100.0, 100.0)
        self.assertEqual(self.run_compare("--allow-rebaselined", "BENCH_fig.json"), 1)

    def test_declared_rebaseline_lists_every_move(self):
        # Moves far below the 1% real_time print threshold must still show.
        write_bench(self.base, "BENCH_fig.json", {
            "BM_A": (297.5925, {"hits": 0.0, "sent": 360.0}),
            "BM_B": (100.0, {"hits": 7.0}),
        })
        write_bench(self.new, "BENCH_fig.json", {
            "BM_A": (297.5925, {"hits": 105.0, "sent": 360.0}),
            "BM_B": (100.001, {"hits": 7.0}),
        })
        code, out = self.run_compare_output("--allow-rebaselined", "BENCH_fig.json")
        self.assertEqual(code, 0)
        self.assertIn("BM_A: counter 'hits' 0.0 -> 105.0", out)
        self.assertIn("BM_B: 100.0 -> 100.001 ns", out)
        self.assertNotIn("'sent'", out)
        self.assertNotIn("BM_B: counter", out)

    def test_wallclock_gate_is_one_sided_at_half(self):
        def wallclock(base_time, new_time):
            write_bench(self.base, "BENCH_simcore.json", {"BM_S": (base_time, {})})
            write_bench(self.new, "BENCH_simcore.json", {"BM_S": (new_time, {})})
            return self.run_compare("--wallclock")
        self.assertEqual(wallclock(100.0, 40.0), 0)   # faster host: fine
        self.assertEqual(wallclock(100.0, 140.0), 0)  # within 0.5
        self.assertEqual(wallclock(100.0, 160.0), 1)


if __name__ == "__main__":
    unittest.main()
