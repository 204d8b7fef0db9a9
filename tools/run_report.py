#!/usr/bin/env python3
"""Render and validate SPIFFI run reports.

A run report is one JSON object per line (JSONL), written by
WriteRunReportJson (src/vod/report.cc) — from `trace_run --report-out`,
or from any bench harness via `--report[=PATH]` / SPIFFI_BENCH_REPORT=1.

Usage:
  run_report.py report.jsonl [more.jsonl ...]   human-readable table
  run_report.py --validate report.jsonl          schema check, exit 1 on
                                                 malformed lines
  run_report.py --json report.jsonl              re-emit as a JSON array
                                                 (for jq-style pipelines)

Validation checks each line parses as JSON, carries every required
field, and that the numeric fields are finite and sane (wall time and
event counts non-negative, config digest 16 hex chars). The optional
`config_knobs` field, when present, must be space-separated `key=value`
tokens (vod::FormatConfig): prefix each with `--` and pass them to
`trace_run` to replay the run.
"""

import json
import math
import re
import sys

REQUIRED_TOP = {
    "label": str,
    "config": str,
    "config_digest": str,
    "seed": int,
    "terminals": int,
    "sim_seconds": (int, float),
    "wall_seconds": (int, float),
    "events_per_sec": (int, float),
    "metrics": dict,
    "telemetry_path": str,
}

REQUIRED_METRICS = {
    "measured_seconds": (int, float),
    "glitches": int,
    "terminals_with_glitches": int,
    "avg_response_ms": (int, float),
    "p50_response_ms": (int, float),
    "p99_response_ms": (int, float),
    "avg_disk_utilization": (int, float),
    "max_disk_utilization": (int, float),
    "avg_cpu_utilization": (int, float),
    "buffer_hit_ratio": (int, float),
    "disk_reads": int,
    "frames_displayed": int,
    "videos_completed": int,
    "avg_network_bytes_per_sec": (int, float),
    "peak_network_bytes_per_sec": (int, float),
    "events_simulated": int,
    "faults_injected": int,
}


# One FormatConfig token: a dotted knob key, '=', a value without spaces
# (the empty fault script writes an empty value).
KNOB_TOKEN = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)?=\S*")


def check(report, where):
    """Returns a list of problems with one parsed report object."""
    problems = []
    for field, kind in REQUIRED_TOP.items():
        if field not in report:
            problems.append(f"{where}: missing field '{field}'")
        elif not isinstance(report[field], kind):
            problems.append(
                f"{where}: field '{field}' has type "
                f"{type(report[field]).__name__}")
    knobs = report.get("config_knobs")
    if knobs is not None:
        if not isinstance(knobs, str):
            problems.append(f"{where}: field 'config_knobs' has type "
                            f"{type(knobs).__name__}")
        else:
            for token in knobs.split():
                if not KNOB_TOKEN.fullmatch(token):
                    problems.append(f"{where}: config_knobs token "
                                    f"'{token}' is not key=value")
    metrics = report.get("metrics")
    if isinstance(metrics, dict):
        for field, kind in REQUIRED_METRICS.items():
            if field not in metrics:
                problems.append(f"{where}: missing metrics.{field}")
            elif not isinstance(metrics[field], kind):
                problems.append(
                    f"{where}: metrics.{field} has type "
                    f"{type(metrics[field]).__name__}")
    if problems:
        return problems

    digest = report["config_digest"]
    if len(digest) != 16 or any(c not in "0123456789abcdef" for c in digest):
        problems.append(f"{where}: config_digest '{digest}' is not 16 hex "
                        "chars")
    for field in ("sim_seconds", "wall_seconds", "events_per_sec"):
        v = report[field]
        if not math.isfinite(v) or v < 0:
            problems.append(f"{where}: {field} = {v}")
    for field in ("measured_seconds", "avg_response_ms", "p50_response_ms",
                  "p99_response_ms"):
        v = metrics[field]
        if not math.isfinite(v) or v < 0:
            problems.append(f"{where}: metrics.{field} = {v}")
    for field in ("avg_disk_utilization", "max_disk_utilization",
                  "avg_cpu_utilization", "buffer_hit_ratio"):
        v = metrics[field]
        if not math.isfinite(v) or v < 0 or v > 1.0 + 1e-9:
            problems.append(f"{where}: metrics.{field} = {v} outside [0,1]")
    if metrics["p50_response_ms"] > metrics["p99_response_ms"] + 1e-9:
        problems.append(f"{where}: p50 > p99")
    return problems


def load(paths):
    reports = []
    problems = []
    for path in paths:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    report = json.loads(line)
                except json.JSONDecodeError as e:
                    problems.append(f"{where}: not JSON ({e})")
                    continue
                problems.extend(check(report, where))
                reports.append(report)
    return reports, problems


def human(value, unit=""):
    if value >= 1e9:
        return f"{value / 1e9:.2f}G{unit}"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M{unit}"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k{unit}"
    return f"{value:.0f}{unit}"


def render(reports):
    header = (f"{'label':<28} {'terminals':>9} {'sim s':>7} {'wall s':>7} "
              f"{'ev/s':>9} {'glitches':>8} {'p99 ms':>8} {'disk%':>6} "
              f"{'hit%':>6}")
    print(header)
    print("-" * len(header))
    for r in reports:
        m = r["metrics"]
        print(f"{r['label']:<28} {r['terminals']:>9} "
              f"{r['sim_seconds']:>7.0f} {r['wall_seconds']:>7.2f} "
              f"{human(r['events_per_sec']):>9} {m['glitches']:>8} "
              f"{m['p99_response_ms']:>8.1f} "
              f"{m['avg_disk_utilization'] * 100:>5.1f}% "
              f"{m['buffer_hit_ratio'] * 100:>5.1f}%")
    if reports:
        r = reports[0]
        print(f"\nconfig digest {r['config_digest']}  seed {r['seed']}")
        print(f"config: {r['config']}")
        if r.get("config_knobs"):
            print(f"knobs: {r['config_knobs']}")
        if r["telemetry_path"]:
            print(f"telemetry: {r['telemetry_path']}")


def main(argv):
    validate = "--validate" in argv
    as_json = "--json" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    reports, problems = load(paths)
    for problem in problems:
        print(f"run_report: {problem}", file=sys.stderr)
    if validate:
        n = len(reports)
        if problems:
            print(f"run_report: INVALID ({len(problems)} problems in "
                  f"{n} reports)", file=sys.stderr)
            return 1
        print(f"run_report: OK ({n} report{'s' if n != 1 else ''})")
        return 0
    if as_json:
        json.dump(reports, sys.stdout, indent=2)
        print()
        return 1 if problems else 0
    render(reports)
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
