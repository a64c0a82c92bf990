"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL <detail>` before asserting,
so a failing run still reports the measured numbers.
"""

import math
import statistics
import time

import numpy as np
import pytest

from marginlab import geometry, harness, kernels, sphere
from marginlab import learners as L
from marginlab.harness import ExperimentConfig
from marginlab.sphere import RngStream

from test_learners import hinge_lp_oracle


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {num} ({name}) failed: {detail}"


def gap_config(**kw):
    base = dict(d=25, gamma=0.01, theta=0.7, lambda3=0.02, loss="hinge",
                n_train=4000, n_test=20000, n_seeds=3, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_acceptance_1_gap_experiment():
    t0 = time.time()
    suite = [
        ("linear", {}, 5.0),
        ("sss", {}, 20.0),
        ("rbf", {"sigma": 1.0}, 20.0),
        ("poly", {"degree": 3}, 20.0),
    ]
    expect_cert = 0.02 * (0.5 + math.asin(0.08) / math.pi)
    worst = []
    ok = True
    for name, params, C in suite:
        cfg = gap_config(kernel=name, kernel_params=params, C=C)
        rep = harness.run_gap_experiment(cfg)
        for row in rep.rows:
            if row["error"]:
                ok = False
                worst.append(f"{name}: {row['error']}")
                continue
            assert row["err_margin_certified"] == pytest.approx(
                expect_cert, rel=1e-12)
            if not (row["err01"] >= 0.10 and row["ratio"] >= 5.0):
                ok = False
            worst.append(f"{name}/s{row['seed']}: err01={row['err01']:.3f} "
                         f"ratio={row['ratio']:.1f}")
    dt = time.time() - t0
    ok = ok and dt <= 300
    report(1, "gap_experiment", ok,
           f"cert={expect_cert:.5f} {'; '.join(worst)} ({dt:.0f}s)")


def test_acceptance_2_gamma_sweep_trend():
    t0 = time.time()
    medians = {}
    for g in (0.04, 0.02, 0.01, 0.005):
        cfg = gap_config(gamma=g, lambda3=5 * g, kernel="rbf",
                         kernel_params={"sigma": 2.0}, C=10.0)
        rep = harness.run_gap_experiment(cfg)
        ratios = [r["ratio"] for r in rep.rows if not r["error"]]
        medians[g] = statistics.median(ratios)
    dt = time.time() - t0
    ok = medians[0.005] >= 3.0 * medians[0.04] and dt <= 600
    report(2, "gamma_sweep_trend", ok,
           f"medians={ {g: round(v, 2) for g, v in medians.items()} } ({dt:.0f}s)")


def test_acceptance_3_orthopoly_suite():
    t0 = time.time()
    passed, rep = harness.verify_lemmas("orthopoly")
    dt = time.time() - t0
    fails = [c["check"] for c in rep["orthopoly"] if not c["passed"]]
    ok = passed and dt <= 60
    report(3, "orthopoly_suite", ok,
           f"{len(rep['orthopoly'])} checks, failures={fails} ({dt:.0f}s)")


def test_acceptance_4_changes_slowly_suite():
    t0 = time.time()
    passed, rep = harness.verify_lemmas("band")
    dt = time.time() - t0
    detail = rep["band"][0]["detail"]
    ok = passed and dt <= 60
    report(4, "changes_slowly_suite", ok,
           f"n={detail['n']} violations={detail['violations']} ({dt:.0f}s)")


def test_acceptance_5_kernel_suite():
    t0 = time.time()
    shipped = [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
    ]
    rng = RngStream(20, 0)
    min_eig = math.inf
    for _ in range(100):
        d = int(rng.gen.integers(3, 14))
        n = int(rng.gen.integers(5, 25))
        X = np.array([sphere.sample_unit_sphere(d, rng) for _ in range(n)])
        for k in shipped:
            G = kernels.gram(k, X, check_psd=False)
            min_eig = min(min_eig, kernels.min_eigenvalue(G))
    coeff_ok = True
    norm_ok = True
    for name, kw in [("sss", {}), ("rbf", {"sigma": 1.0}),
                     ("poly", {"degree": 3})]:
        k = kernels.standard_kernel(name, **kw)
        prof = kernels.RkhsProfile.from_kernel(k, 8)
        k1 = float(k.profile_value(1.0))
        coeff_ok &= (float(np.min(prof.b)) >= -1e-8
                     and abs(float(np.sum(prof.b)) - k1) <= 1e-6)
        nrm = kernels.rkhs_norm_symmetric(prof.b, prof)
        norm_ok &= abs(nrm - math.sqrt(k1)) <= 1e-6
    # rank-one symmetrization -> <x,y>/d within 3 MC sigma
    d = 6
    k1r = kernels.KernelSpec(name="rank1",
                             feature_map=lambda X: np.atleast_2d(X)[:, :1])
    ks = kernels.symmetrize_mc(k1r, d, 4096, RngStream(21, 0))
    s = np.linspace(-1, 1, 17)
    sym_err = np.abs(ks.profile_value(s) - s / d)
    sym_ok = bool(np.all(sym_err <= 3 * ks.profile_std_err(s) + 1e-3))
    dt = time.time() - t0
    ok = min_eig >= -1e-8 and coeff_ok and norm_ok and sym_ok and dt <= 120
    report(5, "kernel_suite", ok,
           f"min_eig={min_eig:.2e} coeffs={coeff_ok} norms={norm_ok} "
           f"sym={sym_ok} ({dt:.0f}s)")


def test_acceptance_6_solver_vs_oracle():
    t0 = time.time()
    rng = np.random.default_rng(100)
    hinge = L.make_loss("hinge")
    lin = kernels.standard_kernel("linear")
    opts = L.SolverOptions(max_iters=600, n_restarts=14)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        atoms = [(float(rng.uniform(-1, 1)), int(rng.choice([-1, 1])),
                  float(rng.uniform(0.1, 1))) for _ in range(n)]
        C = float(rng.uniform(0.5, 3.0))
        X = np.zeros((n, 6))
        X[:, 0] = [a[0] for a in atoms]
        y = np.array([a[1] for a in atoms], float)
        w = np.array([a[2] for a in atoms], float)
        model = L.train_kernel_program((X, y, w), lin, hinge, C, opts)
        oracle = hinge_lp_oracle(atoms, C, bias_half=opts.bias_box)
        worst = max(worst, abs(model.objective - oracle))
    # loss-scaling identity: truncated-margin error of f = hinge error of C f
    C = 9.0
    tm = L.make_loss("truncated_margin", gamma=0.01, C=C)
    margins = rng.standard_normal(2000)
    scale_dev = abs(float(tm.value(margins).mean())
                    - float(hinge.value(C * margins).mean()))
    dt = time.time() - t0
    ok = worst <= 1e-3 and scale_dev <= 1e-6 and dt <= 120
    report(6, "solver_vs_oracle", ok,
           f"worst_gap={worst:.2e} scale_dev={scale_dev:.2e} ({dt:.0f}s)")


def test_acceptance_7_geometry_suite():
    t0 = time.time()
    rng = RngStream(30, 0)
    contain_ok = True
    ratio_ok = True
    for m in (2, 3, 5, 10):
        pts = np.array([sphere.sample_unit_sphere(m, rng)
                        for _ in range(20 * m)])
        ell = geometry.mvee(pts, symmetric=True)
        contain_ok &= float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS
        Minv = np.linalg.inv(ell.shape)
        for _ in range(200):
            u = sphere.sample_unit_sphere(m, rng)
            lhs = float(np.max(np.abs(pts @ u)))
            rhs = math.sqrt(float(u @ Minv @ u)
                            / (m * (1 + geometry.MVEE_EPS)))
            ratio_ok &= lhs >= rhs - 1e-12
    cert_ok = True
    for m in (2, 3, 5):
        A = rng.gen.standard_normal((m, 10))
        probes = geometry.default_probes(10, m, rng)
        try:
            geometry.build_noise_measure(lambda x, A=A: A @ x, probes, m,
                                         rng=rng.child(m))
        except geometry.GeometryError:
            cert_ok = False
    dt = time.time() - t0
    ok = contain_ok and ratio_ok and cert_ok and dt <= 120
    report(7, "geometry_suite", ok,
           f"containment={contain_ok} ratio={ratio_ok} certificate={cert_ok} "
           f"({dt:.0f}s)")


def test_acceptance_8_reproducibility(tmp_path):
    import os

    from marginlab import cli

    cfg = dict(d=10, gamma=0.02, theta=0.7, lambda3=0.05, kernel="rbf",
               kernel_params={"sigma": 2.0}, C=4.0, loss="hinge",
               n_train=150, n_test=300, n_seeds=3, seed=0,
               max_iters=60, n_restarts=3)
    import json

    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    outs = []
    for threads in ("1", "8", "1"):
        out = os.path.join(tmp_path, f"sweep_{len(outs)}.csv")
        assert cli.main(["sweep", "--config", path, "--threads", threads,
                         "--out", out]) == 0
        outs.append(open(out, "rb").read())
    ok = outs[0] == outs[1] == outs[2]
    report(8, "reproducibility", ok,
           f"{len(outs[0])} bytes, threads 1 vs 8 identical={ok}")
