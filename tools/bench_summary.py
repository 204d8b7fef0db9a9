#!/usr/bin/env python3
"""Condense google-benchmark JSON output into BENCH_kernel.json.

Usage: bench_summary.py raw1.json [raw2.json ...] > BENCH_kernel.json

Keeps one entry per benchmark run: the per-iteration wall time and the
items-per-second counter (events/sec for the calendar and process
benchmarks in micro_sim_kernel, pages/sec for micro_buffer_pool).
"""

import json
import sys


def main() -> int:
    entries = []
    context = {}
    for arg in sys.argv[1:]:
        with open(arg) as f:
            data = json.load(f)
        ctx = data.get("context", {})
        context.setdefault("date", ctx.get("date"))
        context.setdefault("library_build_type", ctx.get("library_build_type"))
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            entry = {
                "name": bench["name"],
                "time_ns": bench.get("real_time"),
            }
            if "items_per_second" in bench:
                entry["items_per_sec"] = bench["items_per_second"]
            if bench.get("label"):
                entry["label"] = bench["label"]
            entries.append(entry)
    summary = {"context": context, "benchmarks": entries}
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
