#!/usr/bin/env python3
"""Solve the lemma_checks benchmark's tiny hinge programs over a seed range,
in the working tree and in a parent revision, and print every seed at which
a program misses the benchmark's oracle gate.

Usage: python3 scripts/tiny_gate.py --parent REV --seeds FIRST LAST

For each seed S in FIRST..LAST, `bench/workloads.LemmaChecks(S)` draws its
20 tiny programs and their exact LP optima; each program is solved as the
workload's passes solve it, and a program misses the gate when its
objective lies more than `workloads.ORACLE_TOL` from the LP optimum.  A
timed benchmark run checks a few blocks of these programs, so a seed listed
here fails that run whenever it checks the block.  REV's committed files
are exported with `git archive` into a temporary directory, removed
afterwards; the two trees are solved at once, one process each, at one BLAS
thread.  The script prints each tree's misses and the seeds whose verdicts
differ, and exits 1 if the working tree misses a seed that the parent passes.
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
# one JSON line per program that misses the gate
SOLVE = """\
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from marginlab import learners
loss = learners.make_loss("hinge")
for seed in range({first}, {last} + 1):
    wl = workloads.LemmaChecks(seed)
    for i, (X, y, w, C) in enumerate(wl.tiny):
        model = learners.train_kernel_program((X, y, w), wl.kernel, loss, C,
                                              wl.opts)
        gap = abs(model.objective - wl.oracle[i])
        if gap > workloads.ORACLE_TOL:
            print(json.dumps({{"seed": seed, "program": i, "gap": gap}}),
                  flush=True)
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
        misses = {}
        for side, proc in procs.items():
            out, err = proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"{side} exited {proc.returncode}:\n{err}")
            misses[side] = [json.loads(line) for line in out.splitlines()]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failing = {}
    for side, found in misses.items():
        for m in found:
            print(f"{side} seed {m['seed']}: tiny[{m['program']}] misses "
                  f"the LP optimum by {m['gap']:.4e}")
        failing[side] = sorted({m["seed"] for m in found})
        print(f"{side}: {len(failing[side])} of {last - first + 1} seeds "
              f"miss the gate: {failing[side]}")
    differ = sorted(set(failing["parent"]) ^ set(failing["change"]))
    print(f"verdicts differ at seeds {differ}" if differ
          else "verdicts equal at every seed")
    return 1 if set(failing["change"]) - set(failing["parent"]) else 0


if __name__ == "__main__":
    sys.exit(main())
