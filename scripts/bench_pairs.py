#!/usr/bin/env python3
"""Compare the working tree against a parent revision on one benchmark
workload, in alternating pairs of runs.

Usage: python3 scripts/bench_pairs.py --parent REV --workload W --pairs N
           --seed0 S [--out BENCH_<pr>.json]

REV is checked out in a temporary git worktree, removed afterwards.  Pair i
runs `bench/run.py --workload W --seed S+i --seconds T --trace 0` once in
each tree, T being BENCHMARK.json's run_seconds, the parent first on even i
and the working tree first on odd i.  The script prints each side's median
and quartiles of every end-to-end metric, the number of pairs the working
tree wins on pass_s, and whether the gain rule holds: a win in at least 9 of every 10 pairs, and a median
gain larger than the parent's interquartile range.  With --out the pairs,
the summaries and the verdict are written as JSON.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the end-to-end metric whose gain is judged
METRIC = "pass_s"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True,
                   help="git revision to compare with")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--out", default=None, help="JSON file for the results")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def bench_once(root, workload, seed, seconds):
    """Metric values of one `bench/run.py --trace 0` run in the tree at root,
    and whether all of its checks passed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return ({k: m["value"] for k, m in result["metrics"].items()},
            bool(result["correct"]))


def summary(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sign = 1.0 if better[METRIC] == "lower" else -1.0

    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    parent_root = os.path.join(tmp, "parent")
    subprocess.run(["git", "worktree", "add", "--detach", parent_root,
                    commit], cwd=ROOT, check=True, capture_output=True)
    runs = {"parent": [], "change": []}
    correct = {"parent": True, "change": True}
    try:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["parent", "change"]
            if i % 2:
                order.reverse()
            for side in order:
                root = parent_root if side == "parent" else ROOT
                metrics, ok = bench_once(root, args.workload, seed, seconds)
                runs[side].append(metrics)
                correct[side] = correct[side] and ok
            p, c = (runs[s][-1][METRIC] for s in ("parent", "change"))
            print(f"pair {i} seed {seed} ({order[0]} first): "
                  f"{METRIC} parent {p:.4g} change {c:.4g}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent_root],
                       cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    summaries = {side: {name: summary([r[name] for r in rs])
                        for name in better if name in rs[0]}
                 for side, rs in runs.items()}
    for name in better:
        if name not in summaries["parent"]:
            continue
        ps, cs = summaries["parent"][name], summaries["change"][name]
        print(f"{name}: parent {ps['median']:.4g} [{ps['q1']:.4g}-"
              f"{ps['q3']:.4g}]  change {cs['median']:.4g} "
              f"[{cs['q1']:.4g}-{cs['q3']:.4g}]")

    wins = sum(sign * (p[METRIC] - c[METRIC]) > 0
               for p, c in zip(runs["parent"], runs["change"]))
    ps, cs = summaries["parent"][METRIC], summaries["change"][METRIC]
    gain = sign * (ps["median"] - cs["median"])
    iqr = ps["q3"] - ps["q1"]
    holds = wins >= math.ceil(0.9 * args.pairs) and gain > iqr
    print(f"{METRIC}: change wins {wins} of {args.pairs} pairs; median "
          f"gain {gain:.4g} against parent IQR {iqr:.4g}; rule "
          f"{'holds' if holds else 'does not hold'}")
    print(f"checks passed: parent {correct['parent']}, change "
          f"{correct['change']}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "parent": commit,
                       "seed0": args.seed0, "pairs": args.pairs,
                       "seconds": seconds, "metric": METRIC,
                       "runs": runs, "summaries": summaries, "wins": wins,
                       "median_gain": gain, "parent_iqr": iqr,
                       "rule_holds": holds, "checks_passed": correct},
                      fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
