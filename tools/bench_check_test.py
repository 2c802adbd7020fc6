#!/usr/bin/env python3
"""Tests for bench_check.py: each gate fed small synthetic snapshots.

Run directly (`python3 tools/bench_check_test.py`) or through ctest as
bench_check_test. Stdlib only.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_check.py")

BASELINE = {
    "pipeline": {"windows_per_sec": 1000.0, "p50_us": 10.0,
                 "checksum": -6266.728285},
    "fleet": {"windows_per_sec": 1000.0},
    "cohort": {"users": 4, "windows": 64, "dedup_hits": 8,
               "unique_rows": 56, "models_written": 12,
               "hash_collisions": 0, "windows_per_sec": 100.0,
               "users_per_sec": 10.0},
}


def pipe(wps, checksum=-6266.728285):
    return {"windows_per_sec": wps, "p50_us": 10.0, "checksum": checksum}


def scaling(*rates):
    return {"points": [{"workers": 1 << i, "windows_per_sec": r}
                       for i, r in enumerate(rates)]}


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline", BASELINE)

    def tearDown(self):
        self._dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def check(self, *args):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", self.baseline, *args],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def assert_passes(self, *args):
        rc, out = self.check(*args)
        self.assertEqual(rc, 0, out)
        self.assertIn("OK", out)

    def assert_fails(self, reason, *args):
        rc, out = self.check(*args)
        self.assertEqual(rc, 1, out)
        self.assertIn(reason, out)

    def test_pipeline_floor_gates_the_median(self):
        # The floor is 750 (-25 %); a median of 800 clears it despite one
        # slow outlier, a median of 740 does not despite one fast one.
        self.assert_passes(*(self.write(f"p{i}", pipe(r))
                             for i, r in enumerate((800.0, 300.0, 900.0))))
        self.assert_fails("pipeline windows_per_sec regressed",
                          *(self.write(f"p{i}", pipe(r))
                            for i, r in enumerate((700.0, 740.0, 2000.0))))

    def test_checksum_drift_fails(self):
        self.assert_passes(self.write("same", pipe(1000.0)))
        self.assert_fails("checksum drifted",
                          self.write("drift", pipe(1000.0, -6266.728286)))

    def test_fleet_floor(self):
        self.assert_passes("--fleet",
                           self.write("fleet", {"windows_per_sec": 660.0}))
        self.assert_fails("fleet windows_per_sec regressed", "--fleet",
                          self.write("fleet", {"windows_per_sec": 640.0}))

    def test_scaling_must_be_monotone_within_slack(self):
        self.assert_passes("--scaling",
                           self.write("s", scaling(1000.0, 700.0, 1400.0)))
        self.assert_fails("scaling not monotone", "--scaling",
                          self.write("s", scaling(1000.0, 2000.0, 1200.0)))

    def test_single_point_scaling_passes(self):
        self.assert_passes("--scaling", self.write("s", scaling(1000.0)))

    def test_empty_scaling_fails(self):
        self.assert_fails("no points", "--scaling",
                          self.write("s", scaling()))

    def test_cohort_counters_match_exactly(self):
        cohort = dict(BASELINE["cohort"])
        self.assert_passes("--cohort", self.write("c", cohort))
        cohort["dedup_hits"] += 1
        self.assert_fails("cohort dedup_hits drifted", "--cohort",
                          self.write("c", cohort))


if __name__ == "__main__":
    unittest.main()
