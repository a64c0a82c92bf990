"""marginlab benchmark: one workload, one seed, timed end to end or per layer.

    python3 bench/run.py --workload headline_trial --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 an untimed warm-up pass is followed by timed passes for --seconds
(at least three), and the end-to-end metrics are reported: set-up time
(median of fresh interpreters started between the passes) and median wall
time of a pass, both scaled by a reference timed between the passes, and
peak resident memory.  With --trace 1 a warm-up, an untraced
and a traced pass are run, and the per-layer metrics come from the traced
pass's spans (layers.py).
Every pass is checked; a failed check makes the exit code 1.  The last line
of standard output is the JSON result; spans, machine facts and checks are
also written to .bench_out/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads, identically on every commit: the BLAS thread
# count changes the headline's wall time by ~1.7x, and one thread keeps the
# sweep's pool threads from oversubscribing the CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
MIN_TIMED_PASSES = 3
# The reference: fixed work that belongs to the benchmark, timed REF_REPS
# times after every pass and every set-up probe.  On a shared host the speed
# of the machine drifts by up to 2x over tens of minutes, and the reference
# drifts with it.  Its interpreter part is a pure-Python loop; its memory part
# is products with a 128 MB matrix, larger than the L3 like the headline's
# Gram matrix, and only a memory-bound workload runs it.  Set-up and the
# interpreter-bound workloads are scaled by the loop, a memory-bound workload
# by loop and products together, to the machine speed at which they take the
# REF_*_SECONDS below (see README.md).
REF_LOOP = 300_000
REF_LOOP_SECONDS = 0.020
REF_MATRIX_N = 4000
REF_PRODUCTS = 3
REF_PRODUCTS_SECONDS = 0.040
REF_REPS = 3
WORKLOAD_NAMES = ("headline_trial", "sweep_small", "lemma_checks")

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].setup({seed})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_probe(name: str, seed: int) -> float:
    """Import + config/spec/kernel set-up, timed in a fresh interpreter."""
    code = SETUP_PROBE.format(src=SRC, bench=BENCH_DIR, name=name, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Reference:
    """The run's reference samples: loop times, and products times when the
    workload is memory-bound."""

    def __init__(self, memory_bound: bool):
        import numpy as np

        n = REF_MATRIX_N if memory_bound else 0
        self.memory_bound = memory_bound
        self.matrix = np.random.default_rng(0).standard_normal((n, n))
        self.vector = np.ones(n)
        self.loop_s, self.products_s = [], []

    def sample(self):
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            acc = 0
            for i in range(REF_LOOP):
                acc += i * i
            t1 = time.perf_counter()
            if self.memory_bound:
                for _ in range(REF_PRODUCTS):
                    self.matrix @ self.vector
                self.products_s.append(time.perf_counter() - t1)
            self.loop_s.append(t1 - t0)

    def scale(self, memory_bound: bool) -> float:
        loop = statistics.median(self.loop_s)
        if not memory_bound:
            return REF_LOOP_SECONDS / loop
        return ((REF_LOOP_SECONDS + REF_PRODUCTS_SECONDS)
                / (loop + statistics.median(self.products_s)))

    @property
    def mb(self) -> float:
        return self.matrix.nbytes / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Machine facts.
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Untraced passes: end-to-end metrics.
# ---------------------------------------------------------------------------

def captured_objectives(sink: list):
    """Records each trained model's objective; one call per training, so the
    untraced pass pays nothing measurable for it."""
    from marginlab import learners
    from tracer import patched

    def make(train):
        def capture(*args, **kwargs):
            model = train(*args, **kwargs)
            sink.append(model.objective)
            return model
        return capture

    return patched([(learners, "train_kernel_program", make)])


def end_to_end(wl, args):
    """One untimed warm-up pass, then timed passes for --seconds, with the
    set-up probes and the reference spread between them.  Reports medians
    over the run, scaled to the reference speed."""
    t_start = time.perf_counter()
    ref = Reference(wl.memory_bound)
    passes, objectives, setups = [], [], []
    while True:
        sink = []
        with captured_objectives(sink):
            passes.append(wl.run(index=len(passes)))
        objectives.extend(sink)
        ref.sample()
        timed = passes[1:]
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
            ref.sample()
        if len(timed) < MIN_TIMED_PASSES or len(passes) < wl.min_passes:
            continue
        expected = statistics.median(p.wall_s for p in timed)
        if time.perf_counter() - t_start + expected > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
        ref.sample()
    if not objectives:
        raise RuntimeError("no call to learners.train_kernel_program was seen")
    walls = [p.wall_s for p in timed]
    metrics = {
        "setup_s": (statistics.median(setups) * ref.scale(False), "s"),
        "pass_s": (statistics.median(walls) * ref.scale(wl.memory_bound),
                   "s"),
        # the reference matrix, if any, stays resident from the run's start
        "peak_rss_mb": (peak_rss_mb() - ref.mb, "MB"),
    }
    # Printed, not reported: the raw times move with the host's speed, and
    # the other two vary with the seed's inputs far more than any bound
    # allows (see README.md).
    info = {"setup_wall_s": (statistics.median(setups), "s"),
            "pass_wall_s": (statistics.median(walls), "s"),
            "ref_loop_s": (statistics.median(ref.loop_s), "s"),
            "train_objective": (statistics.fmean(objectives), "loss")}
    if ref.products_s:
        info["ref_products_s"] = (statistics.median(ref.products_s), "s")
    gaps = [g for p in passes for g in p.oracle_gaps]
    if gaps:
        info["oracle_gap_max"] = (max(gaps), "loss")
    record = {"pass_walls_s": walls, "warmup_wall_s": passes[0].wall_s,
              "setup_probes_s": setups, "ref_loop_s": ref.loop_s,
              "ref_products_s": ref.products_s}
    return metrics, info, passes, [], record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "marginlab", "__init__.py")):
        print(f"marginlab sources not found under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import layers
    import workloads

    facts = machine_facts(args.seed)
    print("machine " + json.dumps(facts, sort_keys=True), flush=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, info, passes, extra_checks, trace = layers.per_layer(wl)
    else:
        metrics, info, passes, extra_checks, trace = end_to_end(wl, args)

    checks = [c for p in passes for c in p.checks] + extra_checks
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(f"checks {len(checks) - len(failed)}/{len(checks)} passed, "
          f"fail_share {len(failed) / len(checks):.6g} ratio, "
          f"passes {len(passes)}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value:.6g} {unit}")

    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"machine": facts, "workload": args.workload,
                   "metrics": {k: v for k, (v, _) in {**metrics, **info}.items()},
                   "failed_checks": [[n, str(d)] for n, _, d in failed],
                   **trace}, fh, default=str)
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
