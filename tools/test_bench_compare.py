#!/usr/bin/env python3
"""Tests for bench_compare.py. Run from the repository root:

    python3 tools/test_bench_compare.py
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402

BASELINE = {
    "micro_sim_kernel": {
        "BM_Calendar": {"after_items_per_sec": 100.0},
        "BM_FrameDrawBatch": {"after_items_per_sec": 100.0,
                              "kernel": "avx512f"},
    }
}


def fresh(calendar, draw, label):
    bench = {"name": "BM_FrameDrawBatch", "items_per_second": draw}
    if label:
        bench["label"] = label
    return {"benchmarks": [{"name": "BM_Calendar",
                            "items_per_second": calendar}, bench]}


class BenchCompareTest(unittest.TestCase):
    def compare(self, fresh_data):
        """Returns (exit code, stdout + stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "base.json"
            new = Path(tmp) / "fresh.json"
            base.write_text(json.dumps(BASELINE))
            new.write_text(json.dumps(fresh_data))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = bench_compare.main([str(base), str(new)])
        return code, out.getvalue()

    def test_same_kernel_is_compared(self):
        code, out = self.compare(fresh(100.0, 95.0, "avx512f"))
        self.assertEqual(code, 0)
        self.assertIn("OK (2 benchmarks", out)
        self.assertNotIn("NOT COMPARABLE", out)

    def test_same_kernel_regression_fails(self):
        code, out = self.compare(fresh(100.0, 50.0, "avx512f"))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_other_kernel_is_not_comparable_not_a_pass(self):
        # Half the baseline rate: a regression were it compared.
        code, out = self.compare(fresh(100.0, 50.0, "avx2"))
        self.assertEqual(code, 0)
        self.assertIn("NOT COMPARABLE (baseline kernel avx512f, fresh avx2)",
                      out)
        self.assertIn("OK (1 benchmarks", out)
        self.assertIn("1 not comparable, not counted", out)
        self.assertNotIn("REGRESSION", out)

    def test_missing_label_is_not_comparable(self):
        code, out = self.compare(fresh(100.0, 100.0, None))
        self.assertEqual(code, 0)
        self.assertIn("fresh no label", out)

    def test_other_regressions_still_fail_beside_a_mismatch(self):
        code, out = self.compare(fresh(50.0, 100.0, "default"))
        self.assertEqual(code, 1)
        self.assertIn("NOT COMPARABLE", out)
        self.assertIn("BM_Calendar: 0.50x of baseline", out)


if __name__ == "__main__":
    unittest.main()
