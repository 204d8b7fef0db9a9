#!/usr/bin/env python3
"""Compare a fresh benchmark run against the committed BENCH_kernel.json.

Usage:
  bench_compare.py [--threshold=0.15] baseline.json fresh.json [...]

`baseline.json` is the committed BENCH_kernel.json, in either shape:
  * nested:  {"micro_sim_kernel": {"BM_Foo/64": {"after_items_per_sec": N,
             ...}, ...}, "micro_buffer_pool": {...}}
  * summary: {"context": {...}, "benchmarks": [{"name": ..., "time_ns":
             ..., "items_per_sec": ...}, ...]}  (tools/bench_summary.py)

`fresh.json` files are raw google-benchmark --benchmark_format=json
output or bench_summary.py output; several may be given (kernel + pool).

For every benchmark present on both sides, compares items/sec and fails
(exit 1) if any is more than --threshold (default 15%) below baseline.
A baseline entry that records the kernel variant it ran (a "kernel" key
in the nested shape, a "label" in the others: the instruction set the
frame-size kernel selected, e.g. "avx512f") is compared only against a
fresh run whose google-benchmark label names the same variant; any other
fresh run of it is printed as NOT COMPARABLE and listed apart, neither
passed nor failed, since another instruction set runs other code.
A benchmark recorded in the baseline but MISSING from the fresh run is
an error (exit 1): a silently dropped benchmark would otherwise make a
regression invisible. Benchmarks only in the fresh run are reported but
never fail — the committed baseline may predate newly added benchmarks.
Speedups are reported too, as a nudge to refresh the baseline.
"""

import json
import sys


def load_rates(path):
    """Returns ({name: items_per_sec}, {name: kernel label}) from any
    supported shape; only labelled benchmarks appear in the second map."""
    with open(path) as f:
        data = json.load(f)
    rates = {}
    labels = {}
    if "benchmarks" in data:
        # Raw google-benchmark output or bench_summary.py output.
        for bench in data["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            rate = bench.get("items_per_second", bench.get("items_per_sec"))
            if rate:
                rates[bench["name"]] = float(rate)
                if bench.get("label"):
                    labels[bench["name"]] = bench["label"]
    else:
        # Committed nested shape: {harness: {name: {after_items_per_sec}}}.
        # Sections recording non-throughput results (e.g. "stream_share"
        # or "proxy_topology" capacity tables) carry no after_items_per_sec
        # entries and are skipped — the file may hold any mix of sections.
        # Every skip is logged so a silently-missing section is visible.
        for harness, entries in data.items():
            if not isinstance(entries, dict):
                print(f"bench_compare: skipping {path}:{harness} "
                      f"(metadata, not a benchmark section)",
                      file=sys.stderr)
                continue
            found = 0
            for name, entry in entries.items():
                if isinstance(entry, dict) and "after_items_per_sec" in entry:
                    rates[name] = float(entry["after_items_per_sec"])
                    if entry.get("kernel"):
                        labels[name] = entry["kernel"]
                    found += 1
            if found == 0:
                print(f"bench_compare: skipping {path}:{harness} "
                      f"(no after_items_per_sec entries — records "
                      f"non-throughput results)", file=sys.stderr)
    return rates, labels


def main(argv):
    threshold = 0.15
    paths = []
    for arg in argv:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print(f"bench_compare: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    baseline, baseline_labels = load_rates(paths[0])
    fresh = {}
    fresh_labels = {}
    for path in paths[1:]:
        rates, labels = load_rates(path)
        fresh.update(rates)
        fresh_labels.update(labels)
    if not baseline or not fresh:
        print(f"bench_compare: no comparable rates (baseline has "
              f"{len(baseline)}, fresh has {len(fresh)})", file=sys.stderr)
        return 2

    regressions = []
    missing = []
    not_comparable = []
    print(f"{'benchmark':<42} {'baseline':>12} {'fresh':>12} {'ratio':>7}")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            print(f"{name:<42} {baseline[name]:>12.3g} {'absent':>12}"
                  f"   MISSING")
            missing.append(name)
            continue
        if name not in baseline:
            print(f"{name:<42} {'absent':>12} {fresh[name]:>12.3g}   (new)")
            continue
        want = baseline_labels.get(name)
        if want is not None and fresh_labels.get(name) != want:
            got = fresh_labels.get(name, "no label")
            print(f"{name:<42} {baseline[name]:>12.3g} {fresh[name]:>12.3g}"
                  f"   NOT COMPARABLE (baseline kernel {want}, fresh "
                  f"{got})")
            not_comparable.append((name, want, got))
            continue
        ratio = fresh[name] / baseline[name]
        marker = ""
        if ratio < 1.0 - threshold:
            marker = "  REGRESSION"
            regressions.append((name, ratio))
        elif ratio > 1.0 + threshold:
            marker = "  (faster — consider refreshing baseline)"
        print(f"{name:<42} {baseline[name]:>12.3g} {fresh[name]:>12.3g} "
              f"{ratio:>6.2f}x{marker}")

    if missing:
        print(f"\nbench_compare: FAIL — {len(missing)} baseline "
              f"benchmark(s) missing from the fresh run (renamed or "
              f"dropped?):", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if regressions:
        print(f"\nbench_compare: FAIL — {len(regressions)} benchmark(s) "
              f"more than {threshold * 100:.0f}% below baseline:",
              file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x of baseline", file=sys.stderr)
    if not_comparable:
        print(f"\nbench_compare: {len(not_comparable)} benchmark(s) NOT "
              f"COMPARABLE — the fresh run selected another kernel variant "
              f"than the baseline recorded; neither passed nor failed:",
              file=sys.stderr)
        for name, want, got in not_comparable:
            print(f"  {name}: baseline {want}, fresh {got}", file=sys.stderr)
    if missing or regressions:
        return 1
    compared = len(set(baseline) & set(fresh)) - len(not_comparable)
    print(f"\nbench_compare: OK ({compared} benchmarks within "
          f"{threshold * 100:.0f}% of baseline"
          + (f"; {len(not_comparable)} not comparable, not counted)"
             if not_comparable else ")"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
