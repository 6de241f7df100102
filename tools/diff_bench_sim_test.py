#!/usr/bin/env python3
"""Self-test for diff_bench_sim.py, the bench bit-identity diff.

Runs the tool on synthetic BENCH directories and checks its exit status
and report: identical directories pass, a changed simulated field fails
and is named, wall-clock keys are ignored, a file on one side only
fails, and wrong usage exits 2.

Usage: diff_bench_sim_test.py   (registered as CTest tools.diff_bench_sim)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "diff_bench_sim.py")


def fig_doc():
    return {
        "bench": "fig2a_recognition",
        "rows": [
            {"row": "origin", "mean_ms": 412.25, "hit_rate": 0.0,
             "wall_ms": 31.5, "ns_per_op": 52000.0},
            {"row": "coic", "mean_ms": 197.5, "hit_rate": 0.62,
             "wall_ms": 18.25, "ns_per_op": 30500.0},
        ],
    }


def loss_doc():
    return {
        "bench": "loss_sweep",
        "rows": [{"row": "1%", "p99_ms": 1490.0, "success_rate": 1.0,
                  "run_wall_ms": 220.0}],
    }


class DiffBenchSimTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.change = os.path.join(self.tmp.name, "change")
        for directory in (self.base, self.change):
            os.mkdir(directory)
            self.write(directory, "BENCH_fig2a_recognition.json", fig_doc())
            self.write(directory, "BENCH_loss_sweep.json", loss_doc())

    def tearDown(self):
        self.tmp.cleanup()

    @staticmethod
    def write(directory, name, doc):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            json.dump(doc, f)

    def run_tool(self, *args):
        proc = subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_identical_directories_pass(self):
        code, out = self.run_tool(self.base, self.change)
        self.assertEqual(code, 0, out)
        self.assertIn("2 files compared, 0 differences", out)

    def test_changed_sim_field_fails_and_is_named(self):
        doc = fig_doc()
        doc["rows"][1]["hit_rate"] = 0.61
        self.write(self.change, "BENCH_fig2a_recognition.json", doc)
        code, out = self.run_tool(self.base, self.change)
        self.assertEqual(code, 1, out)
        self.assertIn("BENCH_fig2a_recognition.json: row 1 (coic): hit_rate",
                      out)

    def test_wall_clock_fields_are_ignored(self):
        doc = fig_doc()
        doc["rows"][0]["ns_per_op"] *= 3
        doc["rows"][1]["wall_ms"] += 100
        self.write(self.change, "BENCH_fig2a_recognition.json", doc)
        loss = loss_doc()
        loss["rows"][0]["run_wall_ms"] = 1.0
        self.write(self.change, "BENCH_loss_sweep.json", loss)
        code, out = self.run_tool(self.base, self.change)
        self.assertEqual(code, 0, out)

    def test_no_skip_reports_wall_clock_fields(self):
        doc = fig_doc()
        doc["rows"][0]["ns_per_op"] *= 3
        self.write(self.change, "BENCH_fig2a_recognition.json", doc)
        code, out = self.run_tool("--no-skip", self.base, self.change)
        self.assertEqual(code, 1, out)
        self.assertIn("ns_per_op", out)

    def test_file_on_one_side_only_fails(self):
        os.remove(os.path.join(self.change, "BENCH_loss_sweep.json"))
        code, out = self.run_tool(self.base, self.change)
        self.assertEqual(code, 1, out)
        self.assertIn(f"BENCH_loss_sweep.json: only in {self.base}", out)

    def test_micro_bench_file_is_skipped(self):
        self.write(self.change, "BENCH_micro.json", {"rows": [{"x": 1}]})
        code, out = self.run_tool(self.base, self.change)
        self.assertEqual(code, 0, out)

    def test_wrong_usage_exits_2(self):
        self.assertEqual(self.run_tool(self.base)[0], 2)
        self.assertEqual(
            self.run_tool(self.base, os.path.join(self.tmp.name, "absent"))[0],
            2)


if __name__ == "__main__":
    unittest.main()
