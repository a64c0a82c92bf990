#!/usr/bin/env python3
"""Solve the lemma_checks benchmark's tiny hinge programs and run its MVEE
and noise-measure gates over a seed range, in the working tree and in a
parent revision, and print every seed at which a gate fails.

Usage: python3 scripts/tiny_gate.py --parent REV --seeds FIRST LAST

For each seed S in FIRST..LAST, `bench/workloads.LemmaChecks(S)` draws its
20 tiny programs and their exact LP optima; each program is solved as the
workload's passes solve it, and a program misses the gate when its
objective lies more than `workloads.ORACLE_TOL` from the LP optimum.  One
pass of the workload (`run(index=0)`) then gives the seed's
`mvee_containment_m*` and `noise_measure_m*` checks, which every pass makes
on the same inputs.  A timed benchmark run checks a few blocks of the tiny
programs and every pass's MVEE and noise-measure gates, so a seed listed
here fails that run whenever it checks the failing gate.  REV's committed
files are exported with `git archive` into a temporary directory, removed
afterwards; the two trees are run at once, one process each, at one BLAS
thread.  The script prints each tree's failures, the largest
`mvee_containment_m*` quad over the scan against its 1 + MVEE_EPS gate, and
the seeds whose verdicts differ, and exits 1 if the working tree fails a
seed that the parent passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in each tree, with that tree's src and bench first on sys.path; prints
# one JSON line per failed gate, then one with the largest MVEE quad
SOLVE = """\
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from marginlab import geometry, learners
loss = learners.make_loss("hinge")
worst = 0.0
for seed in range({first}, {last} + 1):
    wl = workloads.LemmaChecks(seed)
    failed = []
    for i, (X, y, w, C) in enumerate(wl.tiny):
        model = learners.train_kernel_program((X, y, w), wl.kernel, loss, C,
                                              wl.opts)
        gap = abs(model.objective - wl.oracle[i])
        if gap > workloads.ORACLE_TOL:
            failed.append((f"tiny[{{i}}]",
                           f"misses the LP optimum by {{gap:.4e}}"))
    for check, ok, detail in wl.run(index=0).checks:
        if check.startswith("mvee_containment_m"):
            worst = max(worst, detail)
        elif not check.startswith("noise_measure_m"):
            continue
        if not ok:
            failed.append((check, repr(detail)))
    for check, detail in failed:
        print(json.dumps({{"seed": seed, "check": check, "detail": detail}}),
              flush=True)
print(json.dumps({{"worst_quad": worst,
                  "gate": 1.0 + geometry.MVEE_EPS}}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True,
                   help="git revision to compare with")
    p.add_argument("--seeds", type=int, nargs=2, required=True,
                   metavar=("FIRST", "LAST"))
    args = p.parse_args(argv)
    if not 0 <= args.seeds[0] <= args.seeds[1]:
        p.error("--seeds needs 0 <= FIRST <= LAST")
    return args


def start(root, first, last):
    code = SOLVE.format(src=os.path.join(root, "src"),
                        bench=os.path.join(root, "bench"),
                        first=first, last=last)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def main(argv=None):
    args = parse_args(argv)
    first, last = args.seeds
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="tiny_gate_")
    try:
        parent_root = os.path.join(tmp, "parent")
        os.mkdir(parent_root)
        archive = os.path.join(tmp, "parent.tar")
        subprocess.run(["git", "archive", "-o", archive, commit], cwd=ROOT,
                       check=True, capture_output=True)
        subprocess.run(["tar", "-xf", archive, "-C", parent_root], check=True,
                       capture_output=True)
        procs = {side: start(root, first, last) for side, root in
                 (("parent", parent_root), ("change", ROOT))}
        failures, worst = {}, {}
        for side, proc in procs.items():
            out, err = proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"{side} exited {proc.returncode}:\n{err}")
            *lines, summary = out.splitlines()
            failures[side] = [json.loads(line) for line in lines]
            worst[side] = json.loads(summary)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failing = {}
    for side, found in failures.items():
        for f in found:
            print(f"{side} seed {f['seed']}: {f['check']} fails: "
                  f"{f['detail']}")
        failing[side] = sorted({f["seed"] for f in found})
        print(f"{side}: {len(failing[side])} of {last - first + 1} seeds "
              f"fail a gate: {failing[side]}")
        print(f"{side}: worst mvee_containment quad "
              f"{worst[side]['worst_quad']!r} against the gate "
              f"{worst[side]['gate']!r}")
    differ = sorted(set(failing["parent"]) ^ set(failing["change"]))
    print(f"verdicts differ at seeds {differ}" if differ
          else "verdicts equal at every seed")
    return 1 if set(failing["change"]) - set(failing["parent"]) else 0


if __name__ == "__main__":
    sys.exit(main())
