import contextlib
import json
import math
import mmap
import sys
import threading
import time

import numpy as np
import pytest

from marginlab import geometry, harness, kernels, learners, measures, sphere
from marginlab import orthopoly as op
from marginlab.harness import ExperimentConfig
from marginlab.sphere import RngStream


def small_config(**kw):
    base = dict(
        d=8, gamma=0.02, theta=0.7, lambda3=0.05, kernel="rbf",
        kernel_params={"sigma": 2.0}, C=3.0, loss="hinge",
        n_train=120, n_test=300, n_seeds=1, seed=0,
        max_iters=60, n_restarts=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation_and_json():
    with pytest.raises(harness.UsageError):
        ExperimentConfig(n_train=0)
    # an empty solver schedule has no iterate to report
    for bad in (dict(max_iters=0), dict(n_restarts=0), dict(max_iters=-1)):
        with pytest.raises(harness.UsageError, match="max_iters"):
            ExperimentConfig(**bad)
    # a seed below 0, a norm bound below 0, and whatever the kernel and
    # loss factories raise, a parameter the kernel does not read included
    for bad, message in ((dict(seed=-1), "seed must be >= 0"),
                         (dict(C=-1.0), "C must be >= 0, got -1.0"),
                         (dict(C=math.nan), "C must be >= 0, got nan"),
                         (dict(kernel="rbf", kernel_params={"sigm": 0.3}),
                          "kernel 'rbf' takes no parameter 'sigm'"),
                         (dict(kernel_params={"degree": 3}),
                          "kernel 'linear' takes no parameter 'degree'"),
                         (dict(loss="nope"), "unknown loss"),
                         (dict(loss="margin_loss", C=0.0), "C > 0"),
                         (dict(kernel="rbf", kernel_params={"sigma": 0.0}),
                          "negative power"),
                         (dict(kernel_params=[1]), "mapping")):
        with pytest.raises(harness.UsageError, match=message):
            ExperimentConfig(**bad)
    cfg = small_config()
    cfg2 = ExperimentConfig(**json.loads(cfg.to_json()))
    assert cfg2.to_json() == cfg.to_json()
    assert cfg.eps_opt == pytest.approx(math.sqrt(0.02))


def test_config_hash_stable_under_reordering():
    cfg = small_config()
    doc = json.loads(cfg.to_json())
    shuffled = dict(reversed(list(doc.items())))
    cfg2 = ExperimentConfig(**shuffled)
    assert cfg.config_hash == cfg2.config_hash


def test_band_cutoff_default():
    assert small_config(C=20.0).band_cutoff == 3  # ceil(ln 20)
    assert small_config(C=1.0).band_cutoff == 1


def test_run_single_fields_and_ratio():
    cfg = small_config()
    row = harness.run_single(cfg, 0)
    assert row["error"] == ""
    assert set(harness.SWEEP_COLUMNS) <= set(row)
    assert row["ratio"] == pytest.approx(
        row["err01"] / row["err_margin_certified"])
    assert row["band_gap"] <= row["band_bound"]


def test_narrow_rbf_row_has_band_gap():
    # sigma = 0.05 gives 574 Taylor terms, past the old degree cap of 512,
    # where the band check raised DomainError and the row had no band_gap
    cfg = small_config(d=25, kernel_params={"sigma": 0.05})
    row = harness.run_single(cfg, 0)
    assert row["error"] == ""
    assert math.isfinite(row["band_gap"])
    assert row["band_gap"] <= row["band_bound"]


def test_separable_config_ratio_sentinel():
    # no noise: certified margin error 0, ratio reported as +inf
    cfg = small_config(lambda3=0.0, kernel="linear", kernel_params={},
                       C=100.0, n_train=300, max_iters=200, n_restarts=8)
    row = harness.run_single(cfg, 0)
    assert row["error"] == ""
    assert row["err_margin_certified"] == 0.0
    assert row["ratio"] == math.inf
    assert row["err01"] <= 0.01


def test_seed_failure_recorded_not_raised(monkeypatch):
    # a failure inside a trial (a planted solver error here) becomes the
    # row's error; an unknown kernel is a config error and never gets here
    with pytest.raises(harness.UsageError, match="unknown kernel 'nope'"):
        small_config(kernel="nope")

    def fail(*args, **kwargs):
        raise learners.LossError("planted")

    monkeypatch.setattr(learners, "train_kernel_program", fail)
    row = harness.run_single(small_config(), 0)
    assert row["error"] == "LossError: planted"
    assert math.isnan(row["err01"])


def test_gap_experiment_deterministic():
    cfg = small_config(n_seeds=2)
    r1 = harness.run_gap_experiment(cfg)
    r2 = harness.run_gap_experiment(cfg)
    assert r1.to_json() == r2.to_json()
    assert len(r1.rows) == 2
    assert r1.config_hash == cfg.config_hash


def test_gap_experiment_rows_are_per_seed_trials():
    # the gap experiment is the sweep of its one config: one trial per seed
    # from config.seed on, each sampled apart
    cfg = small_config(n_seeds=3, seed=4)
    rows = harness.run_gap_experiment(cfg).rows
    apart = [harness.run_single(cfg, cfg.seed + i) for i in range(3)]
    assert [r["seed"] for r in rows] == [4, 5, 6]
    assert json.dumps(rows, sort_keys=True) == json.dumps(apart,
                                                          sort_keys=True)


def test_integrality_report():
    row = harness.run_single(small_config(), 0)
    assert row["error"] == ""
    assert row["gap_ratio"] == pytest.approx(
        row["surrogate_optimum"] / row["err_margin_certified"])
    # surrogate loss dominates the 0-1 loss, so the surrogate-based gap ratio
    # upper-bounds the 0-1 ratio at the same trained model
    assert row["gap_ratio"] >= row["ratio"]


def test_sweep_rows_and_thread_invariance():
    cfgs = [small_config(), small_config(gamma=0.03, n_seeds=2)]
    rows1 = harness.sweep(cfgs, threads=1)
    rows8 = harness.sweep(cfgs, threads=8)
    assert len(rows1) == 3
    assert harness.sweep_to_csv(rows1) == harness.sweep_to_csv(rows8)
    csv_text = harness.sweep_to_csv(rows1)
    assert csv_text.splitlines()[0] == ",".join(harness.SWEEP_COLUMNS)
    # ordered by (config index, seed)
    assert [r["config_id"] for r in rows1] == [0, 1, 1]
    assert [r["seed"] for r in rows1][1:] == [0, 1]


def test_sweep_samples_each_distribution_and_seed_once(monkeypatch):
    # configs that differ only in kernel and C share their training and test
    # sets: one sampling per (distribution, size, seed), not one per trial,
    # and the same rows as trials sampled apart, on any number of threads
    calls = []
    sample_dataset = measures.sample_dataset

    def counted(spec, n, rng):
        calls.append((spec.gamma, n, rng.seed, rng.stream_id))
        return sample_dataset(spec, n, rng)

    monkeypatch.setattr(measures, "sample_dataset", counted)
    cfgs = [small_config(gamma=gamma, kernel=kernel, kernel_params=params,
                         C=C, n_seeds=2)
            for gamma in (0.02, 0.03)
            for kernel, params, C in (("linear", {}, 2.0),
                                      ("rbf", {"sigma": 2.0}, 3.0),
                                      ("poly", {"degree": 3}, 4.0))]
    apart = harness.sweep_to_csv(
        [harness.run_single(cfg, cfg.seed + si, ci)
         for ci, cfg in enumerate(cfgs) for si in range(cfg.n_seeds)])
    assert len(calls) == 2 * len(cfgs) * 2
    for threads in (1, 8):
        calls.clear()
        rows = harness.sweep(cfgs, threads=threads)
        # 2 gammas x 2 seeds, each a training and a test set
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 8
        assert harness.sweep_to_csv(rows) == apart
        assert all(r["error"] == "" for r in rows)


def test_sweep_at_float32_sizes_is_thread_invariant(monkeypatch):
    # with the float32 regime from 100 points on and small blocks, every
    # trial builds a float32 triangle, ends with the exact pass and screens
    # its test points, their blocks spread over the one kernel pool that
    # the sweep's threads share: the same CSV bytes at 1, 2 and 4 threads,
    # and as from one kernel worker.  Each sweep runs twice, so the second
    # trains on triangles that the first handed back
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 2**10)
    spread = kernels._spread
    spread_runs = []

    def counted(work, runs):
        spread_runs.append(len(runs))
        return spread(work, runs)

    monkeypatch.setattr(kernels, "_spread", counted)
    cfgs = [small_config(kernel=kernel, kernel_params=params, n_seeds=2)
            for kernel, params in (("linear", {}), ("rbf", {"sigma": 2.0}),
                                   ("poly", {"degree": 3}))]
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    serial = harness.sweep_to_csv(harness.sweep(cfgs, threads=1))
    assert set(spread_runs) == {1}
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    spread_runs.clear()
    lent = lending(monkeypatch)
    for threads in (1, 2, 4) * 2:
        rows = harness.sweep(cfgs, threads=threads)
        assert all(r["error"] == "" for r in rows)
        assert harness.sweep_to_csv(rows) == serial
    assert set(spread_runs) == {2}
    assert kernels._spare is not None
    # the end passes and the screens borrowed the spare, while the other
    # threads' trials built and borrowed too
    assert any(lent)


def test_float32_trial_on_a_nan_spare_keeps_its_row(monkeypatch):
    # a float32-size trial hands its triangle back; filled with NaN, that
    # spare is the next trial's triangle, and the row keeps every byte
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 2**10)
    cfg = small_config()
    fresh = harness.sweep_to_csv([harness.run_single(cfg, 0)])
    spare = kernels._spare
    assert spare is not None and len(spare) == 4 * cfg.n_train**2
    np.frombuffer(spare, np.float32).fill(np.nan)
    assert harness.sweep_to_csv([harness.run_single(cfg, 0)]) == fresh
    assert kernels._spare is spare


def lending(monkeypatch) -> list:
    """A list that records, for each kernels._loan from now on, whether it
    lent the spare triangle."""
    loan, lent = kernels._loan, []

    @contextlib.contextmanager
    def recorded(shape, dtype=float):
        with loan(shape, dtype) as buffer:
            lent.append(isinstance(buffer.base, mmap.mmap))
            yield buffer

    monkeypatch.setattr(kernels, "_loan", recorded)
    return lent


def test_loans_from_a_nan_spare_keep_the_row(monkeypatch):
    # the end pass, the screen and the rescored blocks borrow the triangle
    # that the training has just handed back; filled with NaN right after
    # the hand-back, it gives the row of a trial with no spare to borrow,
    # byte for byte.  The screen's bound is widened so that every test
    # block is rescored
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 2**12)
    screened_scores, hand_back = learners.screened_scores, learners.hand_back

    def undecided(*args):
        scores, bound = screened_scores(*args)
        return scores, bound + 1e3

    def poisoned(G):
        hand_back(G)
        np.frombuffer(kernels._spare, np.float32).fill(np.nan)

    monkeypatch.setattr(learners, "screened_scores", undecided)
    cfg = small_config(n_train=600, n_test=3 * learners.TEST_BLOCK + 5)
    lent = lending(monkeypatch)
    rows = {}
    for name, give in (("none", lambda G: None), ("nan", poisoned)):
        monkeypatch.setattr(learners, "hand_back", give)
        lent.clear()
        row = harness.run_single(cfg, 0)
        assert row["error"] == "" and math.isfinite(row["err_surrogate"])
        rows[name] = harness.sweep_to_csv([row])
        # the end pass, the screen's buffers and its two sets of norms, and
        # four rescored blocks
        assert lent == [name == "nan"] * 8, (name, lent)
    assert rows["nan"] == rows["none"]


def test_shared_samples_sampled_once_under_contention(monkeypatch):
    # more threads than cores ask one Samples for its training set at once:
    # each gets the one array pair, sampled once, however they interleave
    calls = []
    sample_dataset = measures.sample_dataset

    def slow(spec, n, rng):
        calls.append(n)
        time.sleep(0.01)  # widens the window between the check and the store
        return sample_dataset(spec, n, rng)

    monkeypatch.setattr(measures, "sample_dataset", slow)
    samples, spec = harness.Samples(0), small_config().make_spec()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: got.append(samples.get(1, spec, 50)))
            for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert calls == [50] and len(got) == 16
    assert all(g is got[0] for g in got)


def test_sweep_empty_usage_error():
    with pytest.raises(harness.UsageError):
        harness.sweep([])


def test_suites_draw_the_same_sphere_points(monkeypatch):
    # the kernels and geometry suites and geometry.default_probes draw their
    # sphere points in batches: each batch must be the points, and leave the
    # stream where k single draws would
    batched, seen = sphere.sample_unit_spheres, []

    def checked(d, k, rng):
        twin = RngStream(rng.seed, rng.stream_id)
        twin.gen.bit_generator.state = rng.gen.bit_generator.state
        single = np.array([sphere.sample_unit_sphere(d, twin)
                           for _ in range(k)]).reshape(k, d)
        out = batched(d, k, rng)
        assert out.tobytes() == single.tobytes()
        assert rng.gen.bit_generator.state == twin.gen.bit_generator.state
        seen.append(k)
        return out

    monkeypatch.setattr(sphere, "sample_unit_spheres", checked)
    monkeypatch.setattr(geometry, "sample_unit_spheres", checked)
    assert all(ok for _, ok, _ in harness._suite_kernels())
    assert all(ok for _, ok, _ in harness._suite_geometry())
    # 25 point sets; 4 x (20 m points and 200 directions); 3 x 50 m probes
    assert len(seen) == 25 + 8 + 3
    assert seen[-3:] == [100, 150, 250]


def test_john_ratio_matches_direction_loop(monkeypatch):
    # the geometry suite checks the John ratio with one product per m; a
    # loop over its 200 directions, one support function at a time, gives
    # the same minimum slack up to rounding
    draws, ellipsoids = [], []
    batched, mvee = sphere.sample_unit_spheres, geometry.mvee
    monkeypatch.setattr(sphere, "sample_unit_spheres",
                        lambda d, k, rng: draws.append(batched(d, k, rng))
                        or draws[-1])
    monkeypatch.setattr(geometry, "mvee",
                        lambda P, **kw: ellipsoids.append(mvee(P, **kw))
                        or ellipsoids[-1])
    slack = {c: detail["min_slack"] for c, _, detail
             in harness._suite_geometry() if c.startswith("john_ratio")}
    for i, m in enumerate((2, 3, 5, 10)):
        pts, directions = draws[2 * i], draws[2 * i + 1]
        Minv = np.linalg.inv(ellipsoids[i].shape)
        worst = math.inf
        for u in directions:
            lhs = float(np.max(np.abs(pts @ u)))
            rhs = math.sqrt(float(u @ Minv @ u)
                            / (m * (1 + geometry.MVEE_EPS)))
            worst = min(worst, lhs - rhs)
        assert abs(slack[f"john_ratio_m{m}"] - worst) <= 1e-12


def test_verify_unknown_suite():
    with pytest.raises(harness.UsageError):
        harness.verify_lemmas("nope")


def test_verify_orthopoly_passes():
    ok, report = harness.verify_lemmas("orthopoly")
    assert ok
    assert all(c["passed"] for c in report["orthopoly"])


def per_degree_orthopoly_details():
    """The batched checks of the orthopoly suite, one degree and one series
    at a time."""
    inner = np.linspace(-0.99, 0.99, 101)
    worst = 0.0
    for d in (5, 8, 12):
        table = op.legendre_table(d, 40, inner)
        for n in range(1, 41):
            b = op.legendre_bound(d, n, inner)
            worst = max(worst, float(np.max(np.abs(table[n]) - b)))
    h = 1e-6
    ts = np.linspace(-0.9, 0.9, 50)
    rel = 0.0
    for n in range(1, 21):
        tp = (op.chebyshev_table("first", n, ts + h)[n]
              - op.chebyshev_table("first", n, ts - h)[n]) / (2 * h)
        un = n * op.chebyshev_table("second", n - 1, ts)[n - 1]
        rel = max(rel, float(np.max(np.abs(tp - un) / (1.0 + np.abs(un)))))
    grid = np.linspace(-1.0, 1.0, 401)
    sup_dev = 0.0
    for n in range(0, 21):
        u = op.chebyshev_table("second", n, grid)[n]
        sup_dev = max(sup_dev, abs(float(np.max(np.abs(u))) - (n + 1)))
    nodes, wts = op.gauss_chebyshev_nodes(256)
    basis = op.arcsine_orthopoly_table(harness.ARCSINE_ROWS - 1, nodes)
    rng = np.random.default_rng(1234)
    worst_l12 = -math.inf
    for _ in range(500):
        K = int(rng.integers(1, harness.ARCSINE_ROWS + 1))
        alpha = rng.standard_normal(K) * 10 ** rng.uniform(-2, 2)
        vals = alpha @ basis[:K]
        l1 = float(np.sum(wts * np.abs(vals)))
        l2 = float(np.sqrt(np.sum(wts * vals**2)))
        pmax = 1.0 if K == 1 else math.sqrt(2.0)
        worst_l12 = max(worst_l12, l2 - math.sqrt(K) * l1 * pmax - 1e-9 * l2)
    return {"legendre_pointwise_bound": {"excess": worst},
            "chebyshev_derivative_identity": {"rel": rel},
            "chebyshev_second_sup": {"dev": sup_dev},
            "l1_l2_inequality": {"excess": worst_l12}}


def test_orthopoly_suite_batches_match_per_degree_reference():
    # the suite batches degrees and series; each detail keeps the bits of
    # the checks made one degree and one series at a time
    ok, report = harness.verify_lemmas("orthopoly")
    details = {c["check"]: c["detail"] for c in report["orthopoly"]}
    expect = per_degree_orthopoly_details()
    assert ok
    assert {c: details[c] for c in expect} == expect
    assert all(type(v) is float for e in expect.values() for v in e.values())


def flipped_table(d, nmax, t):
    """legendre_table with a "+" on the P_{d,n-2} term."""
    t = np.asarray(t, dtype=float)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = t
    for n in range(2, nmax + 1):
        out[n] = ((2 * n + d - 4) * t * out[n - 1]
                  + (n - 1) * out[n - 2]) / (n + d - 3)
    return out


def failed_checks(suite):
    passed, report = harness.verify_lemmas(suite)
    return passed, {c["check"] for c in report[suite] if not c["passed"]}


def test_mutated_recursion_sign_is_caught(monkeypatch):
    # flipping the recursion sign must fail the orthopoly suite
    monkeypatch.setattr(op, "legendre_table", flipped_table)
    passed, failed = failed_checks("orthopoly")
    assert not passed
    assert "legendre_sup_norm_d5" in failed


def sqrt2_dropped(nmax, x):
    return op.legendre_table(2, nmax, 8.0 * np.asarray(x))


def unscaled_argument(nmax, x):
    table = op.legendre_table(2, nmax, x)
    table[1:] *= math.sqrt(2.0)
    return table


def flipped_sign(nmax, x):
    table = flipped_table(2, nmax, 8.0 * np.asarray(x))
    table[1:] *= math.sqrt(2.0)
    return table


@pytest.mark.parametrize("mutant", [sqrt2_dropped, unscaled_argument,
                                    flipped_sign])
def test_mutated_arcsine_table_is_caught(monkeypatch, mutant):
    # the L1-L2 inequality passes on each of these bases; the orthonormality
    # check on the same table must not
    monkeypatch.setattr(op, "arcsine_orthopoly_table", mutant)
    passed, failed = failed_checks("orthopoly")
    assert not passed
    assert "arcsine_orthonormality" in failed


def test_orthopoly_suite_builds_arcsine_table_once(monkeypatch):
    nodes = op.gauss_chebyshev_nodes(256)[0]
    table = op.legendre_table
    calls = []

    def counting(d, nmax, t):
        calls.append((d, np.shape(t)))
        return table(d, nmax, t)

    monkeypatch.setattr(op, "legendre_table", counting)
    passed, _ = harness.verify_lemmas("orthopoly")
    assert passed
    assert calls.count((2, nodes.shape)) == 1
