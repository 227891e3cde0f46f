#!/usr/bin/env python3
"""The benchmark's own tests: seeded, fingerprinted inputs.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that each workload's
input fingerprint (a hash of its netlist text and E/A/B/C/D bits) is a
function of the seed: the same seed gives the same hash, a different
seed a different one for the seeded workloads, and large-order (a pure
function of its order) ignores the seed.
"""

import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class FingerprintTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def fingerprint(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--fingerprint"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        match = re.search(r"hash=([0-9a-f]{16})", out)
        self.assertIsNotNone(match, out)
        return match.group(1)

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.fingerprint(workload, 7),
                                 self.fingerprint(workload, 7))

    def test_seed_changes_seeded_workloads(self):
        for workload in ("batch-mixed", "sweep-margin"):
            with self.subTest(workload=workload):
                self.assertNotEqual(self.fingerprint(workload, 7),
                                    self.fingerprint(workload, 8))

    def test_large_order_ignores_seed(self):
        self.assertEqual(self.fingerprint("large-order", 7),
                         self.fingerprint("large-order", 8))


if __name__ == "__main__":
    unittest.main()
