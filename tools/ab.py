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


def claim_target(tree, target_dir):
    """Empties `target_dir` if its perfbench build was configured from a
    different source tree (cmake would keep building that one)."""
    cache = target_dir / "perfbench" / "CMakeCache.txt"
    if not cache.exists():
        return
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={tree.resolve() / 'perfbench'}"
    if home not in cache.read_text().splitlines():
        shutil.rmtree(target_dir)


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
    args = parser.parse_args()

    work = Path(args.work_dir).resolve()
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
            claim_target(tree, target)
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
