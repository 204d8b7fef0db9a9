#!/usr/bin/env python3
"""Tests for ab.py's statistics and its microbenchmark gate. Run from
the repository root:

    python3 tools/test_ab.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402


class SignTestTest(unittest.TestCase):
    def test_exact_values(self):
        # 10 of 10: 2 * (1/1024).
        self.assertAlmostEqual(ab.sign_test_p(10, 0), 2 / 1024)
        self.assertAlmostEqual(ab.sign_test_p(0, 10), 2 / 1024)
        # 9 of 10: 2 * (1 + 10) / 1024.
        self.assertAlmostEqual(ab.sign_test_p(9, 1), 22 / 1024)
        # An even split is no evidence at all.
        self.assertEqual(ab.sign_test_p(5, 5), 1.0)
        self.assertEqual(ab.sign_test_p(0, 0), 1.0)


class QuartileTest(unittest.TestCase):
    def test_interpolated_quartiles(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        # Inclusive method: positions 0.75 and 2.25 of four values.
        q1, q2, q3 = ab.quartiles([1.0, 2.0, 3.0, 4.0])
        self.assertAlmostEqual(q1, 1.75)
        self.assertAlmostEqual(q2, 2.5)
        self.assertAlmostEqual(q3, 3.25)
        self.assertAlmostEqual(ab.iqr([1.0, 2.0, 3.0, 4.0]), 1.5)
        self.assertEqual(ab.iqr([7.0]), 0.0)


class SummarizeTest(unittest.TestCase):
    def test_lower_is_better_gain(self):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
        change = [p - 0.1 for p in parent]
        s = ab.summarize(parent, change, "lower")
        self.assertEqual((s["wins"], s["losses"], s["pairs"]), (10, 0, 10))
        self.assertAlmostEqual(s["parent_median"], 1.00)
        self.assertAlmostEqual(s["change_median"], 0.90)
        self.assertAlmostEqual(s["ratio"], 0.90)
        self.assertEqual(s["verdict"], "gain")

    def test_higher_is_better_loss(self):
        parent = [10.0, 11.0, 12.0, 13.0]
        change = [5.0, 6.0, 7.0, 8.0]
        s = ab.summarize(parent, change, "higher")
        self.assertEqual((s["wins"], s["losses"]), (0, 4))
        self.assertEqual(s["verdict"], "loss")

    def test_ties_count_for_neither_side(self):
        s = ab.summarize([1.0, 1.0, 2.0], [1.0, 0.5, 2.0], "lower")
        self.assertEqual((s["wins"], s["losses"]), (1, 0))
        self.assertEqual(s["verdict"], "-")

    def test_gain_needs_more_than_the_parent_spread(self):
        # Every pair won, but by less than the parent's own IQR.
        parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        change = [p - 0.5 for p in parent]
        s = ab.summarize(parent, change, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["verdict"], "-")

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        parent = [1.0] * 10
        change = [0.5] * 8 + [1.5] * 2
        self.assertEqual(ab.summarize(parent, change, "lower")["verdict"],
                         "-")
        change = [0.5] * 9 + [1.5]
        self.assertEqual(ab.summarize(parent, change, "lower")["verdict"],
                         "gain")

    def test_rejects_unpaired_samples(self):
        with self.assertRaises(ValueError):
            ab.summarize([1.0, 2.0], [1.0], "lower")


# Ten items_per_second samples around 100 spread by +/-12%.
SPREAD = [112.0, 88.0, 105.0, 95.0, 100.0, 108.0, 92.0, 110.0, 90.0, 102.0]


class MicroGateTest(unittest.TestCase):
    def test_aa_spread_passes(self):
        _, gated, _ = ab.micro_gate({"BM_A": SPREAD},
                                    {"BM_A": SPREAD[::-1]})
        self.assertEqual(gated, [])

    def test_steady_quarter_drop_fails(self):
        rows, gated, _ = ab.micro_gate(
            {"BM_A": SPREAD}, {"BM_A": [0.75 * r for r in SPREAD]})
        self.assertEqual(gated, ["BM_A"])
        self.assertEqual(rows["BM_A"]["losses"], 10)
        self.assertAlmostEqual(rows["BM_A"]["ratio"], 0.75)

    def test_drop_needs_nine_tenths_of_the_pairs(self):
        # The median is 20% down, but the change lost only 8 of 10.
        rows, gated, _ = ab.micro_gate(
            {"BM_A": [100.0] * 10}, {"BM_A": [80.0] * 8 + [120.0] * 2})
        self.assertAlmostEqual(rows["BM_A"]["ratio"], 0.80)
        self.assertEqual(rows["BM_A"]["losses"], 8)
        self.assertEqual(gated, [])

    def test_drop_needs_more_than_the_bound(self):
        # Every pair lost, by 10%: inside the 15% bound.
        _, gated, _ = ab.micro_gate({"BM_A": [100.0] * 10},
                                    {"BM_A": [90.0] * 10})
        self.assertEqual(gated, [])

    def test_one_side_benchmarks_are_listed_not_gated(self):
        rows, gated, one_side = ab.micro_gate(
            {"BM_A": SPREAD, "BM_Old": SPREAD},
            {"BM_A": SPREAD, "BM_New": [1.0] * 10})
        self.assertEqual(list(rows), ["BM_A"])
        self.assertEqual(one_side, ["BM_New", "BM_Old"])
        self.assertEqual(gated, [])


class ParseMicroTest(unittest.TestCase):
    REPORT = json.dumps({"context": {}, "benchmarks": [
        {"name": "BM_A/64", "run_type": "iteration",
         "items_per_second": 5.0e6},
        {"name": "BM_A/64_mean", "run_type": "aggregate",
         "aggregate_name": "mean", "items_per_second": 4.0e6},
        {"name": "BM_B", "run_type": "iteration", "real_time": 1.0},
    ]})

    def test_skips_aggregates_and_rows_without_a_rate(self):
        self.assertEqual(ab.parse_micro(0, self.REPORT), {"BM_A/64": 5.0e6})

    def test_nonzero_exit_fails(self):
        with self.assertRaises(RuntimeError):
            ab.parse_micro(1, self.REPORT)

    def test_empty_or_garbled_output_fails(self):
        for stdout in ("", "error: expected to be a double\n", "[]"):
            with self.assertRaises(RuntimeError):
                ab.parse_micro(0, stdout)


class SeedTest(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(ab.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(ab.parse_seeds("1-3,9,11-12"), [1, 2, 3, 9, 11, 12])
        self.assertEqual(ab.parse_seeds("4"), [4])


if __name__ == "__main__":
    unittest.main()
