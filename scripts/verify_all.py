#!/usr/bin/env python3
"""Run every lemma verification suite and print a one-line summary per check,
then one line with each suite's wall time.

Usage: python3 scripts/verify_all.py [suite]
"""

import sys
import time

from marginlab import harness

suite = sys.argv[1] if len(sys.argv) > 1 else "all"
if suite != "all" and suite not in harness.SUITES:
    sys.exit(f"unknown suite {suite!r}; options: "
             f"{', '.join(harness.SUITES)}, all")
names = list(harness.SUITES) if suite == "all" else [suite]
passed = True
times = {}
for name in names:
    t0 = time.perf_counter()
    ok, report = harness.verify_lemmas(name)
    times[name] = time.perf_counter() - t0
    passed = passed and ok
    for c in report[name]:
        status = "ok  " if c["passed"] else "FAIL"
        print(f"[{status}] {name}/{c['check']}")
        if not c["passed"]:
            print(f"       counterexample: {c['detail']}")
print("wall time: " + ", ".join(f"{n} {t:.3f} s" for n, t in times.items()))
print("all passed" if passed else "FAILURES above")
sys.exit(0 if passed else 2)
