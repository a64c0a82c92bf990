"""The three benchmark workloads: inputs from a seed, set-up, one timed pass,
and the correctness checks on what the pass returned.

A pass is kept to a few seconds, so that one run holds several of them and
reports their median.  ``run(index=k)`` is the run's k-th pass; only
``lemma_checks`` uses the index, to pick its block of tiny programs, and a run
makes at least ``min_passes`` passes so that every block is solved and checked.

Every call into marginlab goes through a module attribute
(``harness.run_single``, ``geometry.mvee``, ...), so that a traced pass can
wrap it; see tracer.py.  Inputs the benchmark generates itself use numpy
only, and the exact LP oracle for the tiny programs lives here, independent
of the package.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from marginlab import geometry, harness, kernels, learners, sphere

# The ROADMAP headline config (n_train=4000: a 128 MB Gram matrix, more than
# the L3) on a shorter solver schedule and test set: 40 instead of 600
# iterations and 5000 instead of 20000 test points.  The full trial takes
# 27-42 s at one BLAS thread, so a run held a single pass, and two sets of
# such runs spread by more than any usable bound.
HEADLINE = dict(d=25, gamma=0.01, theta=0.7, lambda3=0.02, kernel="rbf",
                kernel_params={"sigma": 1.0}, C=20.0, loss="hinge",
                n_train=4000, n_test=5000, max_iters=20, n_restarts=2)
SWEEP_KERNELS = [("linear", {}, 5.0), ("sss", {}, 20.0),
                 ("rbf", {"sigma": 1.0}, 20.0), ("poly", {"degree": 3}, 20.0)]
SWEEP_GAMMAS = (0.04, 0.01)
SWEEP_SEEDS = 1
SWEEP_SIZES = dict(d=25, theta=0.7, lambda3=0.02, loss="hinge",
                   n_train=400, n_test=2000)
MVEE_DIMS = (10, 20, 30)  # m=50 is left out: one mvee there takes ~35 s
NOISE_DIMS = (2, 3, 5, 8)
NOISE_AMBIENT = 10
TINY_PROGRAMS = 20
TINY_PER_PASS = 5  # pass k solves block k mod 4 of the 20 programs
TINY_OPTS = dict(max_iters=600, n_restarts=14)
ORACLE_TOL = 1e-3
CERT_TOL = 1e-12


@dataclass
class PassResult:
    """What one timed pass produced, checked after the clock stopped."""

    wall_s: float
    checks: list = field(default_factory=list)  # (name, ok, detail)
    oracle_gaps: list = field(default_factory=list)
    csv: str | None = None


def analytic_certified(gamma: float, lambda3: float) -> float:
    """gamma-margin error of the reference halfspace: the band's share of
    mass with y t < gamma, lambda3 (1/2 + asin(8 gamma)/pi)."""
    return lambda3 * (0.5 + math.asin(8.0 * gamma) / math.pi)


def unit_rows(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    g = rng.standard_normal((n, m))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _row_checks(rows, headline: bool) -> list:
    checks = []
    for r in rows:
        tag = f"trial[{r['config_id']},{r['seed']}]"
        checks.append((f"{tag}.error_empty", r["error"] == "", r["error"]))
        if r["error"]:
            continue
        want = analytic_certified(r["gamma"], r["lambda3"])
        dev = abs(r["err_margin_certified"] - want)
        checks.append((f"{tag}.certified", dev <= CERT_TOL, dev))
        if headline:
            checks.append((f"{tag}.err01>=0.10", r["err01"] >= 0.10,
                           r["err01"]))
            checks.append((f"{tag}.ratio>=5", r["ratio"] >= 5.0, r["ratio"]))
    return checks


# ---------------------------------------------------------------------------
# headline_trial: one run_single on the headline config.
# ---------------------------------------------------------------------------

class HeadlineTrial:
    name = "headline_trial"
    min_passes = 1
    memory_bound = True  # its time is scaled by the reference's products too

    def __init__(self, seed: int):
        self.seed = seed
        self.config = self.setup(seed)

    def run(self, threads: int = 1, index: int = 0) -> PassResult:
        t0 = time.perf_counter()
        row = harness.run_single(self.config, self.seed)
        wall = time.perf_counter() - t0
        return PassResult(wall, _row_checks([row], headline=True))

    @staticmethod
    def setup(seed: int):
        cfg = harness.ExperimentConfig(**HEADLINE, seed=seed)
        cfg.make_spec(), cfg.make_kernel(), cfg.make_loss()
        return cfg


# ---------------------------------------------------------------------------
# sweep_small: 4 kernels x 2 gammas x 1 seed at n_train=400.  Timed passes
# run at threads=1: on two shared vCPUs a pass on both threads took up to 2x
# longer whenever either CPU was contended.  The traced run compares the pool
# at threads=CPU count against it.
# ---------------------------------------------------------------------------

class SweepSmall:
    name = "sweep_small"
    min_passes = 1
    memory_bound = False

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = self.setup(seed)
        self.pool_threads = os.cpu_count() or 1

    def run(self, threads: int = 1, index: int = 0) -> PassResult:
        t0 = time.perf_counter()
        rows = harness.sweep(self.configs, threads=threads)
        text = harness.sweep_to_csv(rows)
        wall = time.perf_counter() - t0
        return PassResult(wall, _row_checks(rows, headline=False), csv=text)

    @staticmethod
    def setup(seed: int) -> list:
        configs = []
        for gamma in SWEEP_GAMMAS:
            for name, params, C in SWEEP_KERNELS:
                cfg = harness.ExperimentConfig(
                    **SWEEP_SIZES, gamma=gamma, kernel=name,
                    kernel_params=params, C=C, n_seeds=SWEEP_SEEDS, seed=seed)
                cfg.make_spec(), cfg.make_kernel(), cfg.make_loss()
                configs.append(cfg)
        return configs


# ---------------------------------------------------------------------------
# lemma_checks: verify suites, mvee, noise measures and tiny hinge programs.
# ---------------------------------------------------------------------------

def hinge_lp(t, y, w, C: float, bias_box: float) -> float:
    """Exact optimum of min sum w_i (1 - y_i (s t_i + b))_+ over |s| <= C,
    |b| <= bias_box, by linear programming (HiGHS).  With the linear kernel
    and inputs on the first axis this is the kernel program itself."""
    n = len(t)
    w = w / w.sum()
    A_ub = np.zeros((n, n + 2))
    A_ub[:, 0] = -y * t
    A_ub[:, 1] = -y
    A_ub[:, 2:] = -np.eye(n)
    bounds = [(-C, C), (-bias_box, bias_box)] + [(0, None)] * n
    res = linprog(np.concatenate([[0.0, 0.0], w]), A_ub=A_ub,
                  b_ub=-np.ones(n), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


class LemmaChecks:
    name = "lemma_checks"
    min_passes = TINY_PROGRAMS // TINY_PER_PASS
    memory_bound = False

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.mvee_points = {m: unit_rows(rng, 20 * m, m) for m in MVEE_DIMS}
        self.noise_inputs = {
            m: (rng.standard_normal((m, NOISE_AMBIENT)),
                list(unit_rows(rng, 50 * m, NOISE_AMBIENT)))
            for m in NOISE_DIMS
        }
        self.tiny = []
        for _ in range(TINY_PROGRAMS):
            n = int(rng.integers(2, 6))
            X = np.zeros((n, 6))
            X[:, 0] = rng.uniform(-1, 1, n)
            y = rng.choice([-1.0, 1.0], n)
            w = rng.uniform(0.1, 1, n)
            self.tiny.append((X, y, w, float(rng.uniform(0.5, 3.0))))
        self.kernel, self.opts = self.setup(seed)
        self.oracle = [hinge_lp(X[:, 0], y, w, C, self.opts.bias_box)
                       for X, y, w, C in self.tiny]

    def run(self, threads: int = 1, index: int = 0) -> PassResult:
        first = index % self.min_passes * TINY_PER_PASS
        block = range(first, first + TINY_PER_PASS)
        t0 = time.perf_counter()
        passed, report = harness.verify_lemmas("all")
        ellipsoids = {m: geometry.mvee(P, symmetric=True)
                      for m, P in self.mvee_points.items()}
        noise = {}
        for m, (A, probes) in self.noise_inputs.items():
            try:
                noise[m] = geometry.build_noise_measure(
                    lambda x, A=A: A @ x, probes, m,
                    rng=sphere.RngStream(self.seed, m))
            except geometry.GeometryError as exc:
                noise[m] = exc
        loss = learners.make_loss("hinge")
        models = {i: learners.train_kernel_program(
                      self.tiny[i][:3], self.kernel, loss, self.tiny[i][3],
                      self.opts)
                  for i in block}
        wall = time.perf_counter() - t0

        checks = [(f"verify.{suite}.{c['check']}", c["passed"], c["detail"])
                  for suite, entries in report.items() for c in entries]
        checks.append(("verify.all", passed, None))
        for m, ell in ellipsoids.items():
            q = float(np.max(ell.quad(self.mvee_points[m])))
            checks.append((f"mvee_containment_m{m}",
                           q <= 1.0 + geometry.MVEE_EPS, q))
        for m, out in noise.items():
            if isinstance(out, Exception):
                checks.append((f"noise_measure_m{m}", False, str(out)))
            else:
                total = sum(w for _, _, w in out[1].atoms)
                checks.append((f"noise_measure_m{m}",
                               abs(total - 1.0) <= 1e-9, total))
        gaps = []
        for i, model in models.items():
            gaps.append(abs(model.objective - self.oracle[i]))
            checks.append((f"tiny[{i}].oracle_gap", gaps[-1] <= ORACLE_TOL,
                           gaps[-1]))
        return PassResult(wall, checks, oracle_gaps=gaps)

    @staticmethod
    def setup(seed: int):
        kernel = kernels.standard_kernel("linear")
        # timed here; run() builds its own so a traced pass can count
        # iterations
        learners.make_loss("hinge")
        return kernel, learners.SolverOptions(**TINY_OPTS)


WORKLOADS = {w.name: w for w in (HeadlineTrial, SweepSmall, LemmaChecks)}
