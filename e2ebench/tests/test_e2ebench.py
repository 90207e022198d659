"""Tests of the end-to-end benchmark itself.

    python3 -m unittest discover -s e2ebench/tests -v

They build the benchmark's program the way run.py does, then run about
two minutes of single-thread passes.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYER_TIMES = ["prog.record_s", "cpu.inorder_s", "cpu.ooo_s", "mem.warm_s",
               "sim.sample_prep_s", "sim.sampled_replay_s"]


def bench(*args):
    """One shortest run of run.py: (exit code, result object, process)."""
    r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                        "--seed", "1", "--seconds", "0", *args],
                       capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = r.stdout.splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None, r


class OnePassSmoke(unittest.TestCase):
    """One pass (and, traced, one traced run) of every workload."""

    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): bench("--workload", w, "--trace", str(t))
                       for w in WORKLOADS for t in (0, 1)}

    def metric(self, workload, trace, name):
        return self.results[workload, trace][1]["metrics"][name]["value"]

    def test_prints_every_metric_with_its_unit(self):
        for (workload, trace), (code, res, proc) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0, proc.stderr)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                wanted = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(res["metrics"]),
                                 {m["name"] for m in wanted})
                for m in wanted:
                    self.assertEqual(res["metrics"][m["name"]]["unit"],
                                     m["unit"])

    def test_traced_layer_times_fit_in_traced_wall_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                total = sum(self.metric(workload, 1, n) for n in LAYER_TIMES)
                self.assertLessEqual(total,
                                     self.metric(workload, 1, "traced.wall_s"))

    def test_layer_split_is_the_predicted_one(self):
        def largest(workload):
            return max(LAYER_TIMES, key=lambda n: self.metric(workload, 1, n))

        self.assertEqual(largest("fig1-ilp"), "cpu.inorder_s")
        self.assertEqual(largest("l1-sweep"), "cpu.ooo_s")
        self.assertEqual(largest("l1-sweep-sampled"), "prog.record_s")
        self.assertEqual(self.metric("l1-sweep", 1, "cpu.inorder_s"), 0)
        self.assertEqual(self.metric("l1-sweep-sampled", 1, "cpu.inorder_s"),
                         0)
        self.assertGreater(self.metric("l1-sweep-sampled", 0, "peak_rss_mb"),
                           self.metric("l1-sweep", 0, "peak_rss_mb"))


class ExpectedTable(unittest.TestCase):

    def test_corrupted_row_fails_exactly_one_job(self):
        exe_dir = run.build_dir()
        os.makedirs(exe_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=exe_dir) as d:
            for path in glob.glob(os.path.join(BENCH, "expected", "*.tsv")):
                shutil.copy(path, d)
            table = os.path.join(d, "l1-sweep-sampled.tsv")
            with open(table) as f:
                lines = f.read().splitlines()
            row = next(i for i, line in enumerate(lines)
                       if line.startswith("djpeg/VIS/L1=4K\t"))
            cells = lines[row].split("\t")
            cells[2] = "1.5"  # the cpi column
            lines[row] = "\t".join(cells)
            with open(table, "w") as f:
                f.write("\n".join(lines) + "\n")

            code, res, proc = bench("--workload", "l1-sweep-sampled",
                                    "--trace", "0", "--expected-dir", d)
        self.assertEqual(code, 1, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertEqual(res["attempted"], 20)
        self.assertIn("djpeg/VIS/L1=4K", proc.stderr)

    def test_traced_run_reproduces_the_pass(self):
        exe = run.build()
        expected = os.path.join(BENCH, "expected")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p, _, err = run.run_child(exe, "pass", workload, expected)
                t, _, err2 = run.run_child(exe, "trace", workload, expected)
                self.assertIsNotNone(p, err)
                self.assertIsNotNone(t, err2)
                self.assertEqual(p["failed"], 0, p["failures"])
                self.assertEqual(t["failed"], 0, t["failures"])
                self.assertEqual(t["digest"], p["digest"])


if __name__ == "__main__":
    unittest.main()
