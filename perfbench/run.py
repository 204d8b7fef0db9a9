#!/usr/bin/env python3
"""Repository benchmark for the SPIFFI simulator (see README.md).

    python3 perfbench/run.py --workload steady64 --seed 3 --seconds 20 --trace 0

Builds the `perfbench` binary from source on first use (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
named workload for --seconds, checks every operation's simulated outputs
against the committed reference outputs in references.json, and prints
one JSON result as the last line of stdout:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the run's spans next to the build). The exit code is 0 only
when every operation matched its reference and kept its invariants.

Extra options, for the benchmark's own tests and maintenance:
  --shrink   tiny configurations (seconds-long, own references)
  --record   (re)write the reference outputs for this seed
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("steady64", "rt_overload64", "search16_grid")
# A hung binary is killed well before a run reaches three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(out), "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def run_binary(binary, workload, sim_seed, seconds, trace, shrink,
               spans_out=None):
    """Runs the binary once; returns its parsed JSON, or None if it died."""
    cmd = [str(binary), "--workload", workload, "--sim-seed", str(sim_seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if shrink:
        cmd.append("--shrink")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"binary timed out after {RUN_TIMEOUT_S}s")
        return None
    if proc.returncode != 0:
        log(f"binary exited with code {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        log("binary printed no result")
        return None


def load_references(path):
    with open(path) as f:
        return json.load(f)


def write_references(path, references):
    """One line per entry, so a changed output shows as a one-line diff."""
    entries = references["entries"]
    lines = [f"  {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    with open(path, "w") as f:
        f.write(f'{{"seeds": {json.dumps(references["seeds"])},\n'
                ' "entries": {\n' + ",\n".join(lines) + "\n }}\n")


def entry_key(args, sim_seed):
    scale = "shrink" if args.shrink else "full"
    return f"{scale}/{args.workload}/{sim_seed}"


def sim_seed_for(references, seed):
    """Maps the benchmark seed onto the committed reference seeds."""
    seeds = references["seeds"]
    return seeds[seed % len(seeds)]


def expected_output(entry, op):
    if op["kind"] == "search":
        searches = entry.get("search", [])
        return searches[op["config"]] if op["config"] < len(searches) else None
    return entry.get(op["kind"])


def observed_output(op):
    if op["kind"] == "search":
        return {"max_terminals": op["max_terminals"], "probes": op["probes"]}
    return op["fields"]


def check_ops(ops, entry):
    """Returns one message per failed operation."""
    failures = []
    for i, op in enumerate(ops):
        name = f"op {i} ({op['kind']})"
        if op["error"]:
            failures.append(f"{name}: {op['error']}")
            continue
        expected = expected_output(entry, op)
        if expected is None:
            failures.append(f"{name}: no reference output")
            continue
        observed = observed_output(op)
        if observed != expected:
            diff = sorted(k for k in expected
                          if observed.get(k) != expected.get(k))
            failures.append(f"{name}: differs from reference in {diff}")
    return failures


def tally(ops, entry):
    """Returns (attempted, failed, failure messages) for one run's ops."""
    failures = check_ops(ops, entry)
    attempted = max(1, len(ops))
    failed = min(attempted, len(failures) + (0 if ops else 1))
    return attempted, failed, failures


def record(args, references, binary, sim_seed):
    """Runs one repetition of both modes and stores their outputs."""
    entry = {}
    for trace in (False, True):
        result = run_binary(binary, args.workload, sim_seed, 0, trace,
                            args.shrink)
        if result is None:
            return 1
        for op in result["ops"]:
            if op["error"]:
                log(f"not recording: {op['kind']}: {op['error']}")
                return 1
            observed = observed_output(op)
            if op["kind"] == "search":
                searches = entry.setdefault("search", [])
                if op["config"] == len(searches):
                    searches.append(observed)
                elif searches[op["config"]] != observed:
                    log("not recording: search differs between runs")
                    return 1
            elif entry.setdefault(op["kind"], observed) != observed:
                log(f"not recording: {op['kind']} differs between runs")
                return 1
    key = entry_key(args, sim_seed)
    references["entries"][key] = entry
    write_references(REFERENCES, references)
    log(f"recorded {key}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    references = load_references(REFERENCES)
    sim_seed = sim_seed_for(references, args.seed)
    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.record:
        return record(args, references, binary, sim_seed)

    spans_out = None
    if args.trace:
        spans_out = build_dir() / "spans" / (
            f"{args.workload}-seed{args.seed}.json")
        spans_out.parent.mkdir(parents=True, exist_ok=True)
    result = run_binary(binary, args.workload, sim_seed, args.seconds,
                        bool(args.trace), args.shrink, spans_out=spans_out)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    entry = references["entries"].get(entry_key(args, sim_seed), {})
    attempted, failed, failures = tally(result["ops"], entry)
    for failure in failures:
        log(failure)

    host = result["host"]
    raw = "".join(f" {name}={m['value']:.6g}"
                  for name, m in host["raw"].items())
    print(f"perfbench: host hold_speed={host['hold_speed']:.4f} "
          f"draw_speed={host['draw_speed']:.4f}"
          + (f" uncorrected{raw}" if raw else ""))
    env = result["env"]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"sim_seed={sim_seed} trace={args.trace} nproc={env['nproc']} "
          f"jobs={env['jobs']} build={env['build_type']} "
          f"compiler={env['compiler']} "
          f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    if env["build_type"] != "Release":
        print(f"perfbench: WARNING: {env['build_type']} build, "
              "not Release; timings are not comparable")
    if spans_out is not None:
        print(f"perfbench: spans written to {spans_out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
