#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark between two source trees.

    python3 tools/ab.py --parent HEAD~1 --seeds 1-10 --seconds 30 \\
        --workloads rt_overload64,steady64,search16_grid

Exports the parent revision with `git archive` and snapshots the working
tree's tracked and unignored files as the change (so edits made during
the comparison do not leak into it), builds each tree's perfbench under
its own CARGO_TARGET_DIR, then runs `perfbench/run.py --trace 0` for every
(workload, seed) pair on both sides, alternating which side runs first.
Any run that is not `correct: true` with zero failed operations stops the
comparison. Per workload and end-to-end metric it prints both medians,
the change/parent ratio, the pairs the change won (ties count for
neither), the parent's interquartile range and an exact two-sided sign
test p. The verdict column applies the gain rule: the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's IQR.

With `--micro FILTER` it compares the google-benchmark microbenchmarks
instead: both trees build MICRO_BINARIES in Release, each binary runs
MICRO_PAIRS times per side with `--benchmark_filter=FILTER`, alternating
which side runs first, and each benchmark's `items_per_second` is paired
by name and summarized as above, one table per binary. It exits 1 when a
binary fails or the side prints no results, or when a benchmark on both
sides has a gated loss: the change's median more than MICRO_BOUND below
the parent's and the change losing at least nine tenths of the pairs. A
benchmark found on one side only is listed but not gated.

Build and run output go to --work-dir (default .ab_build/ at the
repository root). Every run's metrics are echoed to stderr as it ends.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def log(message):
    print(f"ab: {message}", file=sys.stderr, flush=True)


# --- Statistics -----------------------------------------------------------

def quartiles(values):
    """(Q1, median, Q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p for `wins` against `losses` (ties
    dropped): the chance of a split at least this lopsided under a fair
    coin."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def summarize(parent, change, better):
    """Compares paired samples of one metric. `parent[i]` and `change[i]`
    come from the same seed; `better` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    spread = iqr(parent)
    gain = sign * (change_median - parent_median)
    if 10 * wins >= 9 * len(parent) and gain > spread:
        verdict = "gain"
    elif 10 * losses >= 9 * len(parent) and -gain > spread:
        verdict = "loss"
    else:
        verdict = "-"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else
                 float("nan"),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "parent_iqr": spread,
        "sign_p": sign_test_p(wins, losses),
        "verdict": verdict,
    }


def format_table(workload, rows):
    """Markdown table of summarize() results keyed by metric name."""
    lines = [f"### {workload}", "",
             "| Metric | Parent median | Change median | Ratio | "
             "Change wins | Parent IQR | Sign p | Verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for metric, s in rows.items():
        lines.append(
            f"| `{metric}` | {s['parent_median']:.4g} | "
            f"{s['change_median']:.4g} | {s['ratio']:.3f} | "
            f"{s['wins']}/{s['pairs']} | {s['parent_iqr']:.3g} | "
            f"{s['sign_p']:.3g} | {s['verdict']} |")
    return "\n".join(lines)


def parse_seeds(text):
    """"1-5,9" -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# --- Trees and runs -------------------------------------------------------

def export_rev(rev, dest):
    """Writes `rev`'s committed files to `dest`, unless it already holds
    them (so an unchanged tree keeps its incremental build)."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    stamp = dest / ".ab_rev"
    if stamp.exists() and stamp.read_text() == sha:
        return sha
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    stamp.write_text(sha)
    return sha


def snapshot_worktree(dest):
    """Copies the working tree's tracked and unignored files to `dest`,
    keeping their modification times so the build stays incremental."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "-co",
                             "--exclude-standard"], check=True,
                            stdout=subprocess.PIPE).stdout
    # `-c` also lists tracked files deleted from the working tree; the
    # snapshot leaves them out, as the change does.
    files = b"".join(name + b"\0" for name in listed.split(b"\0")
                     if name and os.path.lexists(ROOT / os.fsdecode(name)))
    pack = subprocess.Popen(["tar", "-C", str(ROOT), "--null", "-T", "-",
                             "-cf", "-"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    unpack = subprocess.Popen(["tar", "-x", "-C", str(dest)],
                              stdin=pack.stdout)
    pack.stdout.close()
    pack.stdin.write(files)
    pack.stdin.close()
    if pack.wait() != 0 or unpack.wait() != 0:
        raise RuntimeError("snapshot of the working tree failed")


def claim_build_dir(source, build_dir):
    """Empties `build_dir` if it was configured from a different source
    tree (cmake would keep building that one)."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={source.resolve()}"
    if home not in cache.read_text().splitlines():
        shutil.rmtree(build_dir)


def run_perfbench(tree, target_dir, workload, seed, seconds, shrink=False):
    """Runs one perfbench measurement; returns its parsed result line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if shrink:
        cmd.append("--shrink")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = {"correct": False}
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: run not "
                           f"correct: {lines[-1] if lines else 'no output'}")
    return result


# --- Microbenchmarks -------------------------------------------------------

MICRO_BINARIES = ("micro_sim_kernel", "micro_buffer_pool", "micro_server")
MICRO_PAIRS = 10
# Seconds per benchmark. A plain double: google-benchmark 1.7 rejects the
# 1.8-only "0.1s" and "10x" forms, and 1.8 still reads a bare number as
# seconds.
MICRO_MIN_TIME = "0.1"
MICRO_BOUND = 0.15


def parse_micro(returncode, stdout):
    """{benchmark name: items_per_second} from one binary's
    `--benchmark_format=json` run. Aggregate rows (mean, median, stddev
    of repetitions) and rows without a rate are skipped. Raises
    RuntimeError on a non-zero exit or output that is not a benchmark
    report."""
    if returncode != 0:
        raise RuntimeError(f"exited with status {returncode}")
    try:
        rows = json.loads(stdout)["benchmarks"]
    except (json.JSONDecodeError, KeyError, TypeError):
        raise RuntimeError("printed no benchmark report") from None
    return {row["name"]: float(row["items_per_second"]) for row in rows
            if row.get("run_type") != "aggregate"
            and "items_per_second" in row}


def micro_gate(parent, change):
    """Pairs two sides' samples ({name: [rate per pair]}) by benchmark.
    Returns (rows, gated, one_side): summarize() per shared benchmark,
    the shared benchmarks with a gated loss, and the benchmarks found on
    one side only."""
    rows = {name: summarize(parent[name], change[name], "higher")
            for name in parent if name in change}
    gated = [name for name, s in rows.items()
             if s["change_median"] < (1.0 - MICRO_BOUND) * s["parent_median"]
             and 10 * s["losses"] >= 9 * s["pairs"]]
    one_side = sorted(set(parent) ^ set(change))
    return rows, gated, one_side


def build_micro(tree, build_dir):
    """Configures `tree` in Release under `build_dir` and builds
    MICRO_BINARIES."""
    claim_build_dir(tree, build_dir)
    for cmd in (["cmake", "-S", str(tree), "-B", str(build_dir), "-G",
                 "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "--target",
                 *MICRO_BINARIES]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            raise RuntimeError(f"{tree.name}: {' '.join(cmd)} failed")


def list_micro(binary, micro_filter):
    """Names of `binary`'s benchmarks matching the filter. (A binary whose
    filter matches nothing prints no report at all, so only binaries
    with a match are run.)"""
    proc = subprocess.run(
        [str(binary), f"--benchmark_filter={micro_filter}",
         "--benchmark_list_tests=true"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary}: exited with status {proc.returncode}")
    return proc.stdout.split()


def run_micro(binary, micro_filter):
    proc = subprocess.run(
        [str(binary), f"--benchmark_filter={micro_filter}",
         f"--benchmark_min_time={MICRO_MIN_TIME}",
         "--benchmark_format=json"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        rates = parse_micro(proc.returncode, proc.stdout)
    except RuntimeError as error:
        raise RuntimeError(f"{binary}: {error}") from None
    if not rates:
        raise RuntimeError(f"{binary}: printed no results")
    return rates


def main_micro(work, parent_rev, micro_filter):
    parent_sha = export_rev(parent_rev, work / "parent")
    snapshot_worktree(work / "change")
    sides = {"parent": (work / "parent", work / "micro-parent"),
             "change": (work / "change", work / "micro-change")}
    log(f"micro: parent {parent_sha[:12]} vs the working tree; "
        f"nproc={len(os.sched_getaffinity(0))} pairs={MICRO_PAIRS} "
        f"filter={micro_filter!r}")

    def binary_path(side, binary):
        return sides[side][1] / "bench" / binary

    # samples[binary][side][benchmark] = rates, one per pair.
    samples = {b: {side: {} for side in sides} for b in MICRO_BINARIES}
    try:
        matched = set()  # (binary, side) with at least one match
        for side, (tree, build_dir) in sides.items():
            log(f"building {side} in {build_dir}")
            build_micro(tree, build_dir)
            for binary in MICRO_BINARIES:
                if list_micro(binary_path(side, binary), micro_filter):
                    matched.add((binary, side))
        if not matched:
            raise RuntimeError(f"no benchmark matches {micro_filter!r}")
        for i in range(MICRO_PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for binary in MICRO_BINARIES:
                for side in order:
                    if (binary, side) not in matched:
                        continue
                    rates = run_micro(binary_path(side, binary),
                                      micro_filter)
                    for name, rate in rates.items():
                        samples[binary][side].setdefault(name, []).append(
                            rate)
            log(f"pair {i + 1}/{MICRO_PAIRS} done")
    except RuntimeError as error:
        log(str(error))
        return 1

    failed = []
    for binary in MICRO_BINARIES:
        rows, gated, one_side = micro_gate(samples[binary]["parent"],
                                           samples[binary]["change"])
        if not rows and not one_side:
            continue
        print(format_table(binary, rows))
        for name in one_side:
            side = "parent" if name in samples[binary]["parent"] else "change"
            print(f"- `{name}`: {side} only, not gated")
        print()
        failed += [(binary, name, rows[name]) for name in gated]
    for binary, name, s in failed:
        print(f"GATED LOSS: {binary} `{name}` at {s['ratio']:.3f}x the "
              f"parent's median (bound {1 - MICRO_BOUND:.2f}x), lost "
              f"{s['losses']}/{s['pairs']} pairs")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workloads",
                        default="steady64,rt_overload64,search16_grid")
    parser.add_argument("--seeds", default="1-10",
                        help='seed list, e.g. "1-10" or "3,7,11"')
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--work-dir", default=str(ROOT / ".ab_build"))
    parser.add_argument("--micro", metavar="FILTER",
                        help="compare the microbenchmarks matching this "
                             "google-benchmark filter instead")
    args = parser.parse_args()

    work = Path(args.work_dir).resolve()
    if args.micro is not None:
        return main_micro(work, args.parent, args.micro)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    with open(ROOT / "BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    parent_sha = export_rev(args.parent, work / "parent")
    snapshot_worktree(work / "change")
    sides = {"parent": (work / "parent", work / "target-parent"),
             "change": (work / "change", work / "target-change")}
    log(f"parent {parent_sha[:12]} vs the working tree; "
        f"nproc={len(os.sched_getaffinity(0))} seconds={args.seconds} "
        f"seeds={seeds}")

    samples = {w: {"parent": [], "change": []} for w in workloads}
    try:
        # Build both trees (the first run.py call builds) and check each
        # on the tiny configurations before timing anything.
        for name, (tree, target) in sides.items():
            log(f"building {name} in {target}")
            claim_build_dir(tree / "perfbench", target / "perfbench")
            for workload in workloads:
                run_perfbench(tree, target, workload, 1, 1, shrink=True)

        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for workload in workloads:
                for name in order:
                    tree, target = sides[name]
                    result = run_perfbench(tree, target, workload, seed,
                                           args.seconds)
                    metrics = {k: v["value"]
                               for k, v in result["metrics"].items()}
                    samples[workload][name].append(metrics)
                    log(f"{workload} seed={seed} {name}: " + " ".join(
                        f"{k}={v:.6g}" for k, v in metrics.items()))
    except RuntimeError as error:
        log(str(error))
        return 1

    for workload in workloads:
        parent_runs = samples[workload]["parent"]
        change_runs = samples[workload]["change"]
        rows = {}
        for metric in parent_runs[0]:
            rows[metric] = summarize([r[metric] for r in parent_runs],
                                     [r[metric] for r in change_runs],
                                     better.get(metric, "lower"))
        print(format_table(workload, rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
