#!/usr/bin/env python3
"""Tests of the benchmark itself, on small configurations:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build perfbench first (as run.py does), so the first run compiles.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Small enough to take about a second per run; every scheme and the tier.
TINY = ["--scale", "0.02", "--virtual-seconds", "0.1"]
WORKLOADS = ("write-paper", "mixed-tier", "write-flashcache5")


def record(workload, traced=False, lanes=2):
    p = subprocess.run(
        [run.BINARY, "--workload", workload, "--trace", "1" if traced else "0",
         "--lanes", str(lanes), *TINY],
        capture_output=True, text=True, check=True, timeout=run.RUN_TIMEOUT_S)
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    if rec["error"]:
        raise AssertionError(f"{workload}: {rec['error']}")
    return rec


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_traced_run_simulates_the_same_outcome(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = record(w)
                traced = record(w, traced=True)
                self.assertEqual(plain["fingerprint"], traced["fingerprint"])
                self.assertEqual(plain["sim_ops"], traced["sim_ops"])
                # Wrappers time the layers only in the traced run.
                self.assertEqual(plain["layers"]["flash"]["calls"], 0)
                self.assertGreater(traced["layers"]["flash"]["calls"], 0)

    def test_one_lane_simulates_the_same_outcome_as_two(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(record(w, lanes=1)["fingerprint"],
                                 record(w, lanes=2)["fingerprint"])

    def test_self_times_balance_lane_busy_time(self):
        rec = record("write-paper", traced=True)
        wrapped = sum(rec["layers"][layer]["self_s"]
                      for layer, _ in run.LAYERS)
        self.assertLessEqual(wrapped, rec["busy_s"] * 1.05)
        self.assertGreater(wrapped, rec["busy_s"] * 0.5)

    def test_wrong_pinned_fingerprint_fails_every_run(self):
        args = argparse.Namespace(workload="write-paper", seed=42, seconds=0,
                                  trace=0)
        _, attempted, failed, _ = run.collect(args, "00000000", extra=TINY)
        self.assertEqual(attempted, run.MIN_RUNS)
        self.assertEqual(failed, attempted)

    def test_unknown_workload_is_refused(self):
        p = subprocess.run([run.BINARY, "--workload", "nope"],
                           capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
