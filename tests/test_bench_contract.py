"""The benchmark's contract with the package: every name that bench/ patches
at call time, and everything its workloads build at set-up, still exists,
and the solver meets the lemma_checks workload's oracle gate.

A renamed or deleted name, or a missed gate, fails here rather than only in
a benchmark run.  bench/ is imported, never written (no bytecode caches
either).
"""

import os
import sys

import pytest

from marginlab import learners

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import layers
        import tracer
        import workloads
        yield layers, tracer, workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)


def test_traced_patches_apply_and_restore(bench):
    layers, tracer, _ = bench
    targets = layers.traced_patches(tracer.Tracer())
    originals = [tracer.lookup(owner, name) for owner, name, _ in targets]
    with tracer.patched(targets):
        pass
    for (owner, name, _), original in zip(targets, originals):
        assert tracer.lookup(owner, name) is original, name


def test_workload_setup(bench):
    _, _, workloads = bench
    assert set(workloads.WORKLOADS) == {"headline_trial", "sweep_small",
                                        "lemma_checks"}
    for workload in workloads.WORKLOADS.values():
        assert workload.setup(0)


# lemma_checks seeds at which a block of tiny programs once missed the gate
GATE_SEEDS = (7, 91, 100, 105, 126, 149, 607)


def test_lemma_checks_oracle_gate(bench):
    # every tiny program of these seeds, solved as the workload solves it,
    # within the workload's tolerance of its exact LP optimum
    _, _, workloads = bench
    loss = learners.make_loss("hinge")
    misses = []
    for seed in GATE_SEEDS:
        workload = workloads.LemmaChecks(seed)
        for i, (X, y, w, C) in enumerate(workload.tiny):
            model = learners.train_kernel_program(
                (X, y, w), workload.kernel, loss, C, workload.opts)
            gap = abs(model.objective - workload.oracle[i])
            if gap > workloads.ORACLE_TOL:
                misses.append((seed, i, gap))
    assert misses == []
