"""Experiment orchestration: the (config, seed) trial, gap experiments, sweeps
over configurations, and the lemma verification suites behind `mgl verify`.

Everything here is deterministic given the config: per-(config, seed) random
streams are derived from the seed alone, so sweeps are byte-identical across
worker counts.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import io
import json
import math
import threading
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import geometry, kernels, learners, lemma_lab, measures, orthopoly, sphere
from .measures import AdversarialSpec
from .sphere import RngStream

SWEEP_COLUMNS = [
    "config_id", "seed", "gamma", "d", "kernel", "C", "loss",
    "lambda2", "lambda3", "n_train",
    "err01", "err_margin_certified", "err_margin_empirical", "err_surrogate",
    "ratio", "surrogate_optimum", "gap_ratio",
    "band_gap", "band_bound", "solver_gap", "error",
]
# sup over [-1, 1] of |sum_n b_n P_{d,n} - kappa| allowed for the exact
# Legendre expansion of a shipped kernel (measured: below 1e-15)
REPRODUCTION_TOL = 1e-13
# rows p_0..p_28 of the arcsine orthonormal basis in the orthopoly suite, and
# the largest entry of |Gram - I| allowed under 256-node quadrature (measured:
# 1.6e-15)
ARCSINE_ROWS = 29
ORTHONORMALITY_TOL = 1e-12
L1_L2_BLOCK = 50


class UsageError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    d: int = 25
    gamma: float = 0.01
    theta: float = 0.7
    lambda2: float = 0.0
    lambda3: float = 0.0
    kernel: str = "linear"
    kernel_params: dict = field(default_factory=dict)
    loss: str = "hinge"
    C: float = 5.0
    n_train: int = 1000
    n_test: int = 5000
    n_seeds: int = 1
    seed: int = 0
    max_iters: int = 150
    n_restarts: int = 4
    eps_opt: float | None = None
    boundary_counts: bool = False

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise UsageError("n_train and n_test must be >= 1")
        if self.n_seeds < 1:
            raise UsageError("n_seeds must be >= 1")
        if self.max_iters < 1 or self.n_restarts < 1:
            raise UsageError("max_iters and n_restarts must be >= 1")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if not self.C >= 0:  # the norm bound; NaN fails too
            raise UsageError(f"C must be >= 0, got {self.C}")
        try:  # the factories read nothing but these fields
            self.make_kernel(), self.make_loss()
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise UsageError(str(exc)) from None
        if self.eps_opt is None:
            self.eps_opt = math.sqrt(self.gamma)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    def make_spec(self) -> AdversarialSpec:
        return AdversarialSpec(
            d=self.d, gamma=self.gamma, theta=self.theta,
            lambda2=self.lambda2, lambda3=self.lambda3,
            boundary_counts=self.boundary_counts,
        )

    def sample_key(self, seed: int) -> tuple:
        """What a trial's training and test sets depend on: the fields
        make_spec reads, the two sizes and the seed."""
        return (self.d, self.gamma, self.theta, self.lambda2, self.lambda3,
                self.boundary_counts, self.n_train, self.n_test, seed)

    def make_kernel(self) -> kernels.KernelSpec:
        return kernels.standard_kernel(self.kernel, **self.kernel_params)

    def make_loss(self) -> learners.SurrogateLoss:
        return learners.make_loss(self.loss, C=self.C)

    def solver_opts(self) -> learners.SolverOptions:
        return learners.SolverOptions(
            max_iters=self.max_iters, n_restarts=self.n_restarts,
            eps_opt=self.eps_opt,
        )

    @property
    def band_cutoff(self) -> int:
        return max(1, math.ceil(math.log(max(self.C, 1.001))))


@dataclass
class ExperimentReport:
    config_hash: str
    versions: dict
    rows: list

    def to_json(self) -> str:
        return json.dumps(
            {"config_hash": self.config_hash, "versions": self.versions,
             "rows": self.rows},
            sort_keys=True,
        )


def _versions() -> dict:
    from . import __version__

    return {"marginlab": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _blank_row(config: ExperimentConfig, config_id, seed) -> dict:
    row = {c: float("nan") for c in SWEEP_COLUMNS}
    row.update(
        config_id=config_id, seed=seed, gamma=config.gamma, d=config.d,
        kernel=config.kernel, C=config.C, loss=config.loss,
        lambda2=config.lambda2, lambda3=config.lambda3,
        n_train=config.n_train, error="",
    )
    return row


class Samples:
    """The training and test sets of one distribution, sizes and seed, each
    sampled on first use: child 1 of the seed's stream samples the training
    set and child 2 the test set.

    sweep hands one Samples to every trial whose config has the same
    ExperimentConfig.sample_key.  A lock lets the first of them sample and
    the others wait for its arrays; a sampling that raised is tried again
    by the next trial, from a fresh stream.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._lock = threading.Lock()
        self._sets = {}

    def get(self, child: int, spec: AdversarialSpec, n: int) -> tuple:
        with self._lock:
            if child not in self._sets:
                rng = RngStream(self.seed, 0).child(child)
                self._sets[child] = measures.sample_dataset(spec, n, rng)
            return self._sets[child]


class Trial:
    """One (config, seed) trial: the training set, the test set and the
    trained model, each made on first use.

    This is the only place the trial's samples are drawn (through Samples,
    shared with other trials or not) and the kernel program is trained, so
    every command that samples, trains or evaluates a config sees the same
    data and model.
    """

    def __init__(self, config: ExperimentConfig, seed: int,
                 samples: Samples | None = None):
        self.config = config
        self.spec = config.make_spec()
        self.samples = Samples(seed) if samples is None else samples

    @property
    def train_data(self) -> tuple:
        return self.samples.get(1, self.spec, self.config.n_train)

    @property
    def test_data(self) -> tuple:
        return self.samples.get(2, self.spec, self.config.n_test)

    @functools.cached_property
    def model(self) -> learners.KernelModel:
        c = self.config
        return learners.train_kernel_program(
            self.train_data, c.make_kernel(), c.make_loss(), c.C,
            c.solver_opts(),
        )

    def evaluate(self, model: learners.KernelModel) -> dict:
        """Test-set errors of the model next to the certified margin error."""
        err01, err_margin, err_surr = learners.evaluate(
            model, self.test_data, self.config.gamma,
            self.config.boundary_counts,
        )
        return {
            "err01": err01,
            "err_margin_certified": measures.certified_margin_bound(self.spec),
            "err_margin_empirical": err_margin,
            "err_surrogate": err_surr,
        }


def run_single(config: ExperimentConfig, seed: int, config_id: int = 0,
               samples: Samples | None = None) -> dict:
    """One (config, seed) trial: sample (or take the samples given, which
    must be for config.sample_key(seed)), train, evaluate, band-check.

    ratio is err01 over the certified margin error; gap_ratio is the trained
    surrogate optimum over it, an empirical lower bound on the surrogate
    program's integrality gap at this instance.  Both are +inf when the
    certified margin error is 0.
    """
    row = _blank_row(config, config_id, seed)
    try:
        trial = Trial(config, seed, samples)
        model = trial.model
        row.update(trial.evaluate(model))
        certified = row["err_margin_certified"]
        row.update(
            ratio=row["err01"] / certified if certified > 0 else float("inf"),
            surrogate_optimum=model.objective,
            gap_ratio=(model.objective / certified if certified > 0
                       else float("inf")),
            solver_gap=model.gap_certificate,
        )
        try:
            report = lemma_lab.check_band_gap(
                model, trial.spec.e, config.gamma, config.band_cutoff)
            row.update(band_gap=report.gap, band_bound=report.bound)
        except lemma_lab.GapViolationError as exc:
            row["error"] = f"band: {exc}"
    except Exception as exc:  # seed-level failures never abort a sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_gap_experiment(config: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(config.config_hash, _versions(), sweep([config]))


def sweep(configs: list, threads: int = 1) -> list:
    """One row per (config, seed), ordered by (config index, seed), from
    threads >= 1 pool threads (the calling thread alone at 1).

    Trials with the same sample_key share one Samples, so each training and
    test set is sampled once.  The trials run (or are queued for the pool)
    one group of such trials after another, so that a group's samples are
    dropped once its last trial is done.
    """
    if not configs:
        raise UsageError("sweep needs at least one config")
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")
    tasks = [
        (ci, cfg, cfg.seed + si)
        for ci, cfg in enumerate(configs)
        for si in range(cfg.n_seeds)
    ]
    groups = {}
    for i, (_, cfg, seed) in enumerate(tasks):
        groups.setdefault(cfg.sample_key(seed), []).append(i)

    def jobs():
        for members in groups.values():
            samples = Samples(tasks[members[0]][2])
            for i in members:
                ci, cfg, seed = tasks[i]
                yield i, (cfg, seed, ci, samples)

    rows = [None] * len(tasks)
    if threads == 1:
        for i, args in jobs():
            rows[i] = run_single(*args)
        return rows
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(i, pool.submit(run_single, *args)) for i, args in jobs()]
        for i, future in futures:
            rows[i] = future.result()
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def sweep_to_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Lemma verification suites.
# ---------------------------------------------------------------------------

def _suite_orthopoly() -> list:
    checks = []
    grid = np.linspace(-1.0, 1.0, 401)
    for d in (3, 5, 8, 12):
        table = orthopoly.legendre_table(d, 40, grid)
        sup = float(np.max(np.abs(table)))
        at1 = orthopoly.legendre_table(d, 40, np.array(1.0))
        checks.append((f"legendre_sup_norm_d{d}", sup <= 1.0 + 1e-9,
                       {"sup": sup}))
        dev1 = float(np.max(np.abs(at1 - 1.0)))
        checks.append((f"legendre_at_one_d{d}", dev1 <= 1e-9, {"dev": dev1}))
    # the pointwise-bound and Chebyshev checks take all their degrees in one
    # call, a column of degrees or one table, as a call per degree pays
    # numpy's per-call overhead on arrays of 50-400 points 20-40 times over;
    # each value, and so each detail of the report, is bit for bit the one
    # a call per degree gives
    inner = np.linspace(-0.99, 0.99, 101)
    degrees = np.arange(1, 41)
    worst = 0.0
    for d in (5, 8, 12):
        table = orthopoly.legendre_table(d, 40, inner)
        b = orthopoly.legendre_bound(d, degrees[:, None], inner)
        worst = max(worst, float(np.max(np.abs(table[1:]) - b)))
    checks.append(("legendre_pointwise_bound", worst <= 1e-9, {"excess": worst}))
    band = np.linspace(-0.125, 0.125, 101)
    worst_tail = -math.inf
    for d in (5, 8, 12):
        table = np.abs(orthopoly.legendre_table(d, 200, band))
        for K in (5, 10, 20):
            tail = float(np.max(table[K:].sum(axis=0)))
            worst_tail = max(worst_tail,
                             tail - orthopoly.legendre_tail_bound(K, d))
    checks.append(("legendre_tail_bound", worst_tail <= 1e-9,
                   {"excess": worst_tail}))
    # Chebyshev: T_n' = n U_{n-1} by central differences, sup U_n = n+1
    h = 1e-6
    ts = np.linspace(-0.9, 0.9, 50)
    tp = (orthopoly.chebyshev_table("first", 20, ts + h)[1:]
          - orthopoly.chebyshev_table("first", 20, ts - h)[1:]) / (2 * h)
    un = degrees[:20, None] * orthopoly.chebyshev_table("second", 19, ts)
    rel = float(np.max(np.abs(tp - un) / (1.0 + np.abs(un))))
    checks.append(("chebyshev_derivative_identity", rel <= 1e-5, {"rel": rel}))
    sup = np.max(np.abs(orthopoly.chebyshev_table("second", 20, grid)), axis=1)
    sup_dev = float(np.max(np.abs(sup - np.arange(1, 22))))
    checks.append(("chebyshev_second_sup", sup_dev <= 1e-9, {"dev": sup_dev}))
    # arcsine orthonormal polynomials, one table for both checks: the Gram
    # matrix of the rows under the quadrature must be the identity, and the
    # L1-L2 inequality must hold on their span
    nodes, wts = orthopoly.gauss_chebyshev_nodes(256)
    basis = orthopoly.arcsine_orthopoly_table(ARCSINE_ROWS - 1, nodes)
    ortho = float(np.max(np.abs((basis * wts) @ basis.T
                                - np.eye(ARCSINE_ROWS))))
    checks.append(("arcsine_orthonormality", ortho <= ORTHONORMALITY_TOL,
                   {"max_dev": ortho}))
    # 500 random series on the basis, their coefficients zero-padded to one
    # row each; the values of L1_L2_BLOCK series at a time are one product
    # with the basis, which bounds the values held at once
    rng = np.random.default_rng(1234)
    coeffs = np.zeros((500, ARCSINE_ROWS))
    Ks = np.empty(500, dtype=int)
    for r in range(500):
        K = Ks[r] = int(rng.integers(1, ARCSINE_ROWS + 1))
        coeffs[r, :K] = rng.standard_normal(K) * 10 ** rng.uniform(-2, 2)
    l1, l2 = np.empty(500), np.empty(500)
    for r in range(0, 500, L1_L2_BLOCK):
        vals = coeffs[r:r + L1_L2_BLOCK] @ basis
        l1[r:r + L1_L2_BLOCK] = np.sum(wts * np.abs(vals), axis=1)
        l2[r:r + L1_L2_BLOCK] = np.sqrt(np.sum(wts * vals**2, axis=1))
    pmax = np.where(Ks == 1, 1.0, math.sqrt(2.0))
    worst_l12 = float(np.max(l2 - np.sqrt(Ks) * l1 * pmax - 1e-9 * l2))
    checks.append(("l1_l2_inequality", worst_l12 <= 0.0, {"excess": worst_l12}))
    return checks


def _suite_band(n_funcs: int = 1000) -> list:
    rng = np.random.default_rng(987)
    draws = []
    for _ in range(n_funcs):
        # indexing a tuple draws as rng.choice on a list does, without
        # building an array per draw
        d = (5, 8)[rng.integers(0, 2)]
        K = (5, 15)[rng.integers(0, 2)]
        gamma = (0.01, 0.05)[rng.integers(0, 2)]
        deg = int(rng.integers(1, 60))
        alpha = rng.standard_normal(deg + 1) * 10 ** rng.uniform(-2, 1)
        draws.append((orthopoly.PolyCoeffs(d, alpha), gamma, K))
    fs, gammas, Ks = zip(*draws)
    violations = [
        {"i": i, "d": f.d, "K": K, "gamma": gamma, "gap": gap, "bound": bound}
        for i, ((f, gamma, K), (gap, bound)) in enumerate(
            zip(draws, orthopoly.changes_slowly_gaps(fs, gammas, Ks)))
        if gap > bound
    ]
    return [("changes_slowly_random_zonal", not violations,
             {"n": n_funcs, "violations": violations[:5]})]


def _suite_kernels(n_sets: int = 25) -> list:
    checks = []
    rng = RngStream(42, 0)
    shipped = [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
    ]
    min_eig = math.inf
    for i in range(n_sets):
        d = int(rng.gen.integers(3, 12))
        n = int(rng.gen.integers(5, 30))
        X = sphere.sample_unit_spheres(d, n, rng)
        for k in shipped:
            G = kernels.gram(k, X)
            min_eig = min(min_eig, kernels.min_eigenvalue(G))
    checks.append(("gram_psd", min_eig >= -1e-8, {"min_eig": min_eig}))
    # the exact Legendre expansion must reproduce each profile on [-1, 1]
    grid = np.linspace(-1.0, 1.0, 401)
    for k in shipped:
        k1 = float(k.profile_value(1.0))
        for d in (6, 10, 25):
            prof = kernels.RkhsProfile.from_kernel(k, d)
            err = float(np.max(np.abs(orthopoly.PolyCoeffs(d, prof.b)(grid)
                                      - k.profile_value(grid))))
            checks.append((f"legendre_reproduction_{k.name}_d{d}",
                           err <= REPRODUCTION_TOL, {"max_err": err}))
            # reproducing identity: ||k(.,x0)||^2 = kappa(1)
            nrm = kernels.rkhs_norm_symmetric(prof.b, prof)
            checks.append((f"reproducing_norm_{k.name}_d{d}",
                           abs(nrm - math.sqrt(k1)) <= 1e-6, {"norm": nrm}))
    return checks


def _suite_geometry() -> list:
    checks = []
    rng = RngStream(7, 0)
    for m in (2, 3, 5, 10):
        pts = sphere.sample_unit_spheres(m, 20 * m, rng)
        ell = geometry.mvee(pts, symmetric=True)
        contain = float(np.max(ell.quad(pts)))
        checks.append((f"mvee_containment_m{m}", contain <= 1.0 + geometry.MVEE_EPS,
                       {"max_quad": contain}))
        # the shrunk ellipsoid E / sqrt(m (1+eps)) lies in conv(+/-pts):
        # compare support functions along 200 random directions at once
        U = sphere.sample_unit_spheres(m, 200, rng)
        lhs = np.abs(pts @ U.T).max(axis=0)
        rhs = np.sqrt(np.einsum("ij,jk,ik->i", U, np.linalg.inv(ell.shape), U)
                      / (m * (1 + geometry.MVEE_EPS)))
        worst = float(np.min(lhs - rhs))
        checks.append((f"john_ratio_m{m}", worst >= -1e-12, {"min_slack": worst}))
    for m in (2, 3, 5):
        A = rng.gen.standard_normal((m, 10))

        def psi(x, A=A):
            return A @ x

        probes = geometry.default_probes(10, m, rng)
        try:
            geometry.build_noise_measure(psi, probes, m, rng=rng.child(m))
            checks.append((f"noise_measure_certificate_m{m}", True, {}))
        except geometry.GeometryError as exc:
            checks.append((f"noise_measure_certificate_m{m}", False,
                           {"error": str(exc)}))
    return checks


SUITES = {
    "orthopoly": _suite_orthopoly,
    "band": _suite_band,
    "kernels": _suite_kernels,
    "geometry": _suite_geometry,
}


def verify_lemmas(suite: str = "all") -> tuple:
    """(passed, report) for the named property suite; counterexamples are in
    the report's failure entries."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise UsageError(f"unknown suite {suite!r}; options: "
                         f"{', '.join(SUITES)}, all")
    report = {}
    passed = True
    for name in names:
        checks = SUITES[name]()
        report[name] = [
            {"check": c, "passed": bool(ok), "detail": detail}
            for c, ok, detail in checks
        ]
        passed = passed and all(ok for _, ok, _ in checks)
    return passed, report
