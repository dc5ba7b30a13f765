#!/usr/bin/env python3
"""Self-tests of the benchmark, at a tiny scale (about a minute in all).

    python3 xvibench/test_bench.py

- every workload, untraced and traced, answers correctly and prints
  exactly the metrics BENCHMARK.json names;
- a wrong expected node list, and an acked write dropped from the log
  before recovery, each make the run report failures;
- outside a full checkout the command fails without a result line.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05", "--seconds", "1"]


def bench(*args, cwd=ROOT, script=os.path.join("xvibench", "run.py")):
    r = subprocess.run([sys.executable, script] + list(args), cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result, r.stderr


with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, res, err = bench("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY)
        self.assertEqual(code, 0, err)
        self.assertIsNotNone(res, err)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], err)
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in want})
        for m in want:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for m in want:
                self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
        return res

    def test_lookup(self):
        self.check("lookup", 0)

    def test_update(self):
        self.check("update", 0)

    def test_ingest(self):
        self.check("ingest", 0)

    def test_traced_and_report(self):
        for w in ("lookup", "update", "ingest"):
            res = self.check(w, 1)
            per = res["metrics"]
            self.assertEqual(per["txn.fsyncs_per_commit"]["value"], 1)
            self.assertEqual(per["engine.epochs_per_commit"]["value"], 1 if w == "update" else 0)
        r = subprocess.run([sys.executable, "xvibench/run.py", "--report"], cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)
        for metric in ("eq_p50_us", "range_wide_p50_us", "commit_p50_us", "ingest_mb_per_s"):
            self.assertIn(metric, r.stdout)
        self.assertIn("dominant", r.stdout)


class Negative(unittest.TestCase):
    def test_wrong_expected_list_fails(self):
        code, res, err = bench("--workload", "lookup", "--seed", "3", "--trace", "0", "--inject", "wrong-expected", *TINY)
        self.assertEqual(code, 0, err)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_dropped_acked_write_fails(self):
        code, res, err = bench("--workload", "update", "--seed", "3", "--trace", "0", "--inject", "drop-ack", *TINY)
        self.assertEqual(code, 0, err)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertIn("after recovery", err)

    def test_bare_directory_fails(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "xvibench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        try:
            code, res, _ = bench("--workload", "lookup", "--seed", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
