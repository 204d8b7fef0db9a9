#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark binary like run.py does and use --shrink configurations,
so the whole suite takes well under a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args):
    """Runs run.py; returns (exit code, stdout lines, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=run.ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def test_metric_names_are_well_formed(self):
        declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        for metric in declared:
            self.assertRegex(metric["name"], NAME)
            self.assertLessEqual(len(metric["name"]), 64)
        for workload in BENCHMARK["workloads"]:
            self.assertRegex(workload["name"], NAME)

    def test_each_workload_emits_every_declared_metric(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, BENCHMARK["end_to_end"]),
                                    (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, _, result = run_bench(
                        "--workload", workload, "--seed", "0",
                        "--seconds", "0", "--trace", str(trace), "--shrink")
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in declared}
                    emitted = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)

    def test_run_records_environment(self):
        _, lines, _ = run_bench("--workload", "steady64", "--seed", "0",
                                "--seconds", "0", "--shrink")
        info = " ".join(lines[:-1])
        for field in ("nproc=", "build=", "compiler=", "failed_ratio=",
                      "hold_speed=", "draw_speed=", "uncorrected wall_s="):
            self.assertIn(field, info)

    def test_tampered_reference_is_a_failed_operation(self):
        references = run.load_references(run.REFERENCES)
        entry = references["entries"]["shrink/steady64/1"]
        result = run.run_binary(self.binary, "steady64", 1, 0, trace=False,
                                shrink=True)
        self.assertIsNotNone(result)
        _, failed, _ = run.tally(result["ops"], entry)
        self.assertEqual(failed, 0)
        entry["run"]["glitches"] += 1
        attempted, failed, failures = run.tally(result["ops"], entry)
        self.assertGreaterEqual(failed, 1)
        self.assertLessEqual(failed, attempted)
        self.assertIn("glitches", failures[0])

    def test_runner_workers_never_exceed_nproc(self):
        # The grid's worker count follows the CPUs the process may use:
        # launched on a single CPU, it must run one worker.
        cpu = min(os.sched_getaffinity(0))
        proc = subprocess.run(
            [str(self.binary), "--workload", "search16_grid", "--sim-seed",
             "1", "--seconds", "0", "--shrink"],
            stdout=subprocess.PIPE, text=True, timeout=300,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(result["env"]["nproc"], 1)
        self.assertEqual(result["env"]["jobs"], 1)
        references = run.load_references(run.REFERENCES)
        entry = references["entries"]["shrink/search16_grid/1"]
        self.assertEqual(run.check_ops(result["ops"], entry), [])


if __name__ == "__main__":
    unittest.main()
