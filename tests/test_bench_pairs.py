"""The bound verdict of scripts/bench_pairs.py on fixed runs."""

import importlib.util
import os
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TIGHT = [0.99, 1.00, 1.00, 1.01, 1.02]  # quartiles 1.00-1.01
WIDE = [0.60, 0.80, 1.00, 1.20, 1.40]  # quartiles 0.80-1.20: 40% of 1.00


@pytest.mark.parametrize("parent, change, better, verdict", [
    # a tight parent: a change 5% worse is within a 25% bound, 30% is not
    (TIGHT, [1.04, 1.05, 1.05, 1.06, 1.07], "lower", "within bound"),
    (TIGHT, [1.28, 1.30, 1.30, 1.31, 1.32], "lower", "regression"),
    # a parent spread wider than the bound cannot tell an equal median ...
    (WIDE, [0.90, 1.00, 1.00, 1.00, 1.10], "lower", "unresolved"),
    (WIDE, [0.90, 1.00, 1.00, 1.00, 1.10], "higher", "unresolved"),
    # ... nor a change whose best runs only tie the parent's worst
    (WIDE, [0.50, 0.55, 0.55, 0.58, 0.60], "lower", "unresolved"),
    # unless every change run reads better than every parent run
    (WIDE, [0.50, 0.55, 0.55, 0.58, 0.59], "lower", "within bound"),
    (WIDE, [1.41, 1.50, 1.50, 1.60, 1.70], "higher", "within bound"),
    # a median worse by more than the bound is a regression however wide
    (WIDE, [1.30, 1.30, 1.30, 1.30, 1.30], "lower", "regression"),
], ids=["tight", "tight_regression", "wide_lower", "wide_higher", "wide_tie",
        "wide_all_better_lower", "wide_all_better_higher", "wide_regression"])
def test_bound_verdict(bench_pairs, parent, change, better, verdict):
    got, worse = bench_pairs.bound_verdict(parent, change, 0.25, better)
    assert got == verdict
    median = sorted(change)[2]
    assert worse == pytest.approx(
        (median - 1.0) if better == "lower" else (1.0 - median))
