#!/usr/bin/env python3
"""Compare the working tree against a parent revision on benchmark
workloads, in alternating pairs of runs.

Usage: python3 scripts/bench_pairs.py --parent REV --workload W [W ...]
           --pairs N --seed0 S [--out BENCH_<pr>.json]

REV's committed files are exported with `git archive` into a temporary
directory, removed afterwards.  For each workload W in turn, pair i runs
`bench/run.py --workload W --seed S+i --seconds T --trace 0` once in each
tree, T being BENCHMARK.json's run_seconds, the parent first on even i and
the working tree first on odd i.  The script prints each side's median and
quartiles of every end-to-end metric and its bound verdict (bound_verdict):
a regression where the working tree's median is worse than the parent's by
more than that metric's bound in BENCHMARK.json (a fraction of the parent's
median), unresolved where the parent's own runs spread wider than the
bound, and within bound otherwise.  It prints the number
of pairs the working tree wins on each end-to-end metric, and whether the
gain rule holds there: a win in at least 9 of every 10 pairs, and a median
gain larger than the parent's interquartile range.  For every run whose
checks failed it prints the side, the seed and the run's
`FAILED <check>: <detail>` lines.  With
--out it writes one JSON object keyed by workload, each value holding that
workload's pairs, summaries, bound verdicts, failures, the gain verdict of
every metric ("gains") and, at the top level, that of pass_s.
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
# the metric printed for each pair, whose gain verdict heads the JSON
METRIC = "pass_s"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True,
                   help="git revision to compare with")
    p.add_argument("--workload", required=True, nargs="+")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--out", default=None, help="JSON file for the results")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def bench_once(root, workload, seed, seconds):
    """Metric values of one `bench/run.py --trace 0` run in the tree at root,
    and its `FAILED <check>: <detail>` lines (none when all checks passed)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    # run.py prints one FAILED line per failed check
    failed = [line for line in lines if line.startswith("FAILED ")]
    return {k: m["value"] for k, m in result["metrics"].items()}, failed


def summary(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def bound_verdict(parent, change, bound, better):
    """The verdict on one metric's runs, parent and change, against its
    bound, and how much worse the change's median is, as a fraction of the
    parent's median.  "regression" where that exceeds the bound;
    "unresolved" where the parent's interquartile range, as a fraction of
    its median, exceeds the bound, unless every change run reads better
    than every parent run; "within bound" otherwise."""
    ps, cs = summary(parent), summary(change)
    sign = 1.0 if better == "lower" else -1.0
    # > 0 when the change's median is worse
    worse = sign * (cs["median"] - ps["median"]) / ps["median"]
    if worse > bound:
        return "regression", worse
    if better == "lower":
        clear = max(change) < min(parent)
    else:
        clear = min(change) > max(parent)
    if (ps["q3"] - ps["q1"]) / ps["median"] > bound and not clear:
        return "unresolved", worse
    return "within bound", worse


def compare(workload, args, parent_root, commit, benchmark):
    """Alternating pairs on one workload: prints the verdicts and returns
    them as one JSON-ready dict."""
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    print(f"workload {workload}", flush=True)
    runs = {"parent": [], "change": []}
    failures = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"]
        if i % 2:
            order.reverse()
        for side in order:
            root = parent_root if side == "parent" else ROOT
            metrics, failed = bench_once(root, workload, seed, seconds)
            runs[side].append(metrics)
            if failed:
                failures.append({"side": side, "seed": seed,
                                 "failed": failed})
                for line in failed:
                    print(f"{side} seed {seed}: {line}", flush=True)
        p, c = (runs[s][-1][METRIC] for s in ("parent", "change"))
        print(f"pair {i} seed {seed} ({order[0]} first): "
              f"{METRIC} parent {p:.4g} change {c:.4g}", flush=True)

    summaries = {side: {name: summary([r[name] for r in rs])
                        for name in better if name in rs[0]}
                 for side, rs in runs.items()}
    verdicts = {}
    for name in better:
        if name not in summaries["parent"]:
            continue
        ps, cs = summaries["parent"][name], summaries["change"][name]
        verdict, worse = bound_verdict(
            [r[name] for r in runs["parent"]],
            [r[name] for r in runs["change"]], bounds[name], better[name])
        verdicts[name] = {"worse_by": worse, "bound": bounds[name],
                          "verdict": verdict,
                          "within_bound": verdict == "within bound"}
        print(f"{name}: parent {ps['median']:.4g} [{ps['q1']:.4g}-"
              f"{ps['q3']:.4g}]  change {cs['median']:.4g} "
              f"[{cs['q1']:.4g}-{cs['q3']:.4g}]  worse by {worse:+.1%}, "
              f"bound {bounds[name]:.0%}: "
              f"{verdict.upper() if verdict == 'regression' else verdict}")

    gains = {}
    for name in verdicts:
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(sign * (p[name] - c[name]) > 0
                   for p, c in zip(runs["parent"], runs["change"]))
        ps, cs = summaries["parent"][name], summaries["change"][name]
        gain = sign * (ps["median"] - cs["median"])
        iqr = ps["q3"] - ps["q1"]
        holds = wins >= math.ceil(0.9 * args.pairs) and gain > iqr
        gains[name] = {"wins": wins, "median_gain": gain, "parent_iqr": iqr,
                       "rule_holds": holds}
        print(f"{name}: change wins {wins} of {args.pairs} pairs; median "
              f"gain {gain:.4g} against parent IQR {iqr:.4g}; rule "
              f"{'holds' if holds else 'does not hold'}")
    correct = {side: not any(f["side"] == side for f in failures)
               for side in runs}
    print(f"checks passed: parent {correct['parent']}, change "
          f"{correct['change']}", flush=True)
    return {"workload": workload, "parent": commit, "seed0": args.seed0,
            "pairs": args.pairs, "seconds": seconds, "metric": METRIC,
            "runs": runs, "summaries": summaries,
            "bound_verdicts": verdicts, "gains": gains, **gains[METRIC],
            "checks_passed": correct, "failures": failures}


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    parent_root = os.path.join(tmp, "parent")
    os.mkdir(parent_root)
    archive = os.path.join(tmp, "parent.tar")
    subprocess.run(["git", "archive", "-o", archive, commit], cwd=ROOT,
                   check=True, capture_output=True)
    subprocess.run(["tar", "-xf", archive, "-C", parent_root], check=True,
                   capture_output=True)
    try:
        results = {w: compare(w, args, parent_root, commit, benchmark)
                   for w in args.workload}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
