import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from marginlab import kernels
from marginlab import learners as L
from marginlab.sphere import RngStream


def lift(atoms, d=6):
    """Embed 1-D atoms at t e1 inside the ball; with the linear kernel the
    program is exactly the slope/bias problem."""
    X = np.zeros((len(atoms), d))
    X[:, 0] = [a[0] for a in atoms]
    y = np.array([a[1] for a in atoms], dtype=float)
    w = np.array([a[2] for a in atoms], dtype=float)
    return X, y, w


def hinge_lp_oracle(atoms, C, bias_half=None):
    """Exact 1-D hinge optimum via linear programming (independent oracle)."""
    t = np.array([a[0] for a in atoms])
    y = np.array([a[1] for a in atoms], dtype=float)
    w = np.array([a[2] for a in atoms], dtype=float)
    w = w / w.sum()
    n = len(atoms)
    if bias_half is None:
        bias_half = max(2.0 * C, 1.0)
    # variables: slope, bias, xi_1..xi_n;  xi_i >= 1 - y_i (s t_i + b)
    A_ub = np.zeros((n, n + 2))
    A_ub[:, 0] = -y * t
    A_ub[:, 1] = -y
    A_ub[:, 2:] = -np.eye(n)
    b_ub = -np.ones(n)
    bounds = [(-C, C), (-bias_half, bias_half)] + [(0, None)] * n
    c = np.concatenate([[0.0, 0.0], w])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    return res.fun


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------

def test_loss_values_and_slopes():
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    hinge = L.make_loss("hinge")
    assert np.allclose(hinge.value(x), [2.0, 1.0, 0.5, 0.0, 0.0])
    assert hinge.d_plus_at_0 == -1.0
    sq = L.make_loss("squared")
    assert np.allclose(sq.value(x), (1 - x) ** 2)
    assert sq.d_plus_at_0 == -2.0
    assert sq.lipschitz == math.inf
    absv = L.make_loss("absolute")
    assert np.allclose(absv.value(x), np.abs(1 - x))
    logi = L.make_loss("logistic")
    assert logi.at_zero == pytest.approx(1.0)
    assert logi.d_plus_at_0 == pytest.approx(-1.0 / (2 * math.log(2)))
    # subgradient is a finite-difference slope up to convexity
    h = 1e-7
    num = (logi.value(np.array(h)) - logi.value(np.array(-h))) / (2 * h)
    assert float(num) == pytest.approx(logi.d_plus_at_0, abs=1e-6)
    with pytest.raises(L.LossError):
        L.make_loss("nope")


def test_margin_losses():
    C = 4.0
    ml = L.make_loss("margin_loss", gamma=0.01, C=C)
    x = np.array([-1.0, 0.0, 1.0 / C, 0.5, 2.0])
    assert np.allclose(ml.value(x), [2.0, 1.0, 0.75, 0.75, 0.75])
    tm = L.make_loss("truncated_margin", gamma=0.01, C=C)
    assert np.allclose(tm.value(x), np.maximum(1 - C * x, 0.0))
    assert tm.d_plus_at_0 == -C
    with pytest.raises(L.LossError):
        L.make_loss("margin_loss", gamma=0.01, C=0.0)


def test_truncated_margin_scaling_identity():
    # mean truncated-margin loss of f equals mean hinge loss of C*f
    C = 7.0
    tm = L.make_loss("truncated_margin", gamma=0.02, C=C)
    hinge = L.make_loss("hinge")
    rng = np.random.default_rng(0)
    margins = rng.standard_normal(1000)
    lhs = tm.value(margins).mean()
    rhs = hinge.value(C * margins).mean()
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_all_losses_dominate_01():
    x = np.linspace(-3, 3, 61)
    for name in ("hinge", "squared", "absolute", "logistic"):
        loss = L.make_loss(name)
        assert np.all(loss.value(x) >= (x <= 0).astype(float) - 1e-12)


# ---------------------------------------------------------------------------
# Kernel program.
# ---------------------------------------------------------------------------

def test_kernel_program_matches_lp_oracle():
    rng = np.random.default_rng(7)
    hinge = L.make_loss("hinge")
    lin = kernels.standard_kernel("linear")
    opts = L.SolverOptions(max_iters=600, n_restarts=14)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        atoms = [(float(rng.uniform(-1, 1)), int(rng.choice([-1, 1])),
                  float(rng.uniform(0.1, 1))) for _ in range(n)]
        C = float(rng.uniform(0.5, 3.0))
        model = L.train_kernel_program(lift(atoms), lin, hinge, C, opts)
        lp = hinge_lp_oracle(atoms, C, bias_half=opts.bias_box)
        assert model.objective <= lp + 1e-3
        assert model.objective >= lp - 1e-9  # solver cannot beat the optimum


def test_feature_map_program_matches_lp_oracle():
    # a learner over explicit features psi is the kernel program with
    # k(x, y) = <psi(x), psi(y)>; psi = first coordinate is the 1-D program
    atoms = [(0.3, 1, 0.5), (-0.2, -1, 0.3), (0.05, -1, 0.2)]
    C = 2.0
    opts = L.SolverOptions(max_iters=600, n_restarts=12)
    first_axis = kernels.KernelSpec(
        name="first_axis", feature_map=lambda X: np.atleast_2d(X)[:, :1])
    model = L.train_kernel_program(lift(atoms), first_axis,
                                   L.make_loss("hinge"), C, opts)
    lp = hinge_lp_oracle(atoms, C, bias_half=opts.bias_box)
    assert model.objective == pytest.approx(lp, abs=2e-3)


def test_norm_constraint_respected():
    rng = np.random.default_rng(8)
    hinge = L.make_loss("hinge")
    k = kernels.standard_kernel("rbf", sigma=1.0)
    X = rng.standard_normal((20, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(rng.standard_normal(20))
    model = L.train_kernel_program((X, y), k, hinge, 0.5,
                                   L.SolverOptions(max_iters=100, n_restarts=3))
    assert model.norm <= 0.5 * (1 + 1e-9)


def test_labeled_point_input_and_json():
    X = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    lin = kernels.standard_kernel("linear")
    opts = L.SolverOptions(max_iters=100, n_restarts=4)
    model = L.train_kernel_program((X, [1, -1]), lin, L.make_loss("hinge"),
                                   2.0, opts)
    assert model.objective == pytest.approx(0.0, abs=1e-3)
    doc = model.to_json()
    assert '"C": 2.0' in doc
    # labels outside +/-1 are rejected by every entry point
    for bad in ([1, 0], [1, 2], [1.0, np.nan]):
        with pytest.raises(L.LossError):
            L.train_kernel_program((X, bad), lin, L.make_loss("hinge"), 2.0,
                                   opts)
        with pytest.raises(L.LossError):
            L.evaluate(model, (X, bad), 0.01)


def test_nonconvergence_reported_on_model():
    # a schedule too short for eps_opt returns its model, flagged unconverged
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(rng.standard_normal(20))
    opts = L.SolverOptions(max_iters=3, n_restarts=1, eps_opt=1e-9)
    model = L.train_kernel_program((X, y), kernels.standard_kernel("rbf"),
                                   L.make_loss("hinge"), 1.0, opts)
    assert model.converged is False
    assert model.gap_certificate > opts.eps_opt


def test_one_gram_product_per_iteration(monkeypatch):
    counter = {"products": 0, "iters": 0}
    gram_product = L.gram_product

    def counting_product(G, u):
        counter["products"] += 1
        return gram_product(G, u)

    monkeypatch.setattr(L, "gram_product", counting_product)
    hinge = L.make_loss("hinge")

    def subgradient(x):
        counter["iters"] += 1
        return hinge.subgradient(x)

    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(X[:, 0] + 0.2 * rng.standard_normal(40))
    opts = L.SolverOptions(max_iters=30, n_restarts=3)
    L.train_kernel_program((X, y), kernels.standard_kernel("rbf"),
                           dataclasses.replace(hinge, subgradient=subgradient),
                           2.0, opts)
    assert counter["iters"] == opts.max_iters * opts.n_restarts
    assert counter["products"] == counter["iters"]


def test_gram_product_reads_gram_in_place(monkeypatch):
    # kernels.gram returns the lower triangle F-ordered, so BLAS takes it
    # without a copy (n^2 doubles per iteration otherwise) and reads that
    # triangle alone; its strict upper triangle is undefined
    calls = []
    dsymv = kernels.dsymv

    def checked_dsymv(alpha, a, x, lower=0):
        full = np.tril(a) + np.tril(a, -1).T
        calls.append((a.flags.f_contiguous and lower == 1, full @ x,
                      dsymv(alpha, a, x, lower=lower),
                      np.linalg.norm(full, 2) * np.linalg.norm(x)))
        return calls[-1][2]

    monkeypatch.setattr(kernels, "dsymv", checked_dsymv)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(X[:, 0] + 0.2 * rng.standard_normal(60))
    model = L.train_kernel_program(
        (X, y), kernels.standard_kernel("rbf"), L.make_loss("hinge"), 2.0,
        L.SolverOptions(max_iters=20, n_restarts=2))
    assert model.norm <= 2.0 * (1 + 1e-9)
    assert len(calls) == 20 * 2 + 1
    for lower_in_place, expected, got, scale in calls:
        assert lower_in_place
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_carried_scores_match_recomputed_objective():
    # the solver updates G alpha instead of recomputing it; the returned
    # objective must still be the objective of the returned iterate
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(X[:, 0] + 0.3 * rng.standard_normal(80))
    opts = L.SolverOptions(max_iters=200, n_restarts=5)
    for name in ("hinge", "logistic", "absolute"):
        loss = L.make_loss(name)
        model = L.train_kernel_program((X, y), kernels.standard_kernel("rbf"),
                                       loss, 3.0, opts)
        scores = L.gram_product(model._gram, model.alpha) + model.b
        assert float(np.mean(loss.value(y * scores))) == pytest.approx(
            model.objective, abs=1e-12)


def solve_recording_bound(atoms, C, opts, flip_support=False):
    """Train a tiny linear-kernel hinge program; also return the best
    linearization lower bound the solver computed.  flip_support plants a
    sign error in the C sqrt(u' G u) term."""
    original = L._linearization_bound
    best = [-math.inf]

    def recording(f, u, scores, b, gb, support, bias_box):
        bound = original(f, u, scores, b, gb,
                         -support if flip_support else support, bias_box)
        best[0] = max(best[0], bound)
        return bound

    with mock.patch.object(L, "_linearization_bound", recording):
        model = L.train_kernel_program(
            lift(atoms), kernels.standard_kernel("linear"),
            L.make_loss("hinge"), C, opts)
    return model, best[0]


TINY_OPTS = L.SolverOptions(max_iters=100, n_restarts=3)
atom_lists = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.sampled_from([-1, 1]),
              st.floats(0.1, 1.0)),
    min_size=2, max_size=5)


@settings(max_examples=30, deadline=None)
@given(atom_lists, st.floats(0.5, 3.0))
def test_linearization_bound_brackets_lp_optimum(atoms, C):
    model, lower = solve_recording_bound(atoms, C, TINY_OPTS)
    lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box)
    assert lower <= lp + 1e-9
    assert model.objective - model.gap_certificate <= lp + 1e-9
    # the Gram jitter eps lets the solver move each score by up to
    # C sqrt(eps) beyond the LP's feasible set (all atoms at t = 0 reach it)
    assert lp <= model.objective + C * math.sqrt(L.GRAM_JITTER)


def test_mutated_support_sign_is_caught():
    # adding C sqrt(u' G u) instead of subtracting it must break the
    # bracket lower bound <= LP optimum on some random tiny program
    rng = np.random.default_rng(11)
    caught = 0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        atoms = [(float(rng.uniform(-1, 1)), int(rng.choice([-1, 1])),
                  float(rng.uniform(0.1, 1))) for _ in range(n)]
        C = float(rng.uniform(0.5, 3.0))
        lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box)
        _, lower = solve_recording_bound(atoms, C, TINY_OPTS)
        assert lower <= lp + 1e-9
        model, mutated = solve_recording_bound(atoms, C, TINY_OPTS,
                                               flip_support=True)
        caught += (mutated > lp + 1e-9
                   and model.objective - model.gap_certificate > lp + 1e-9)
    assert caught > 0


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def test_evaluate_conventions():
    lin = kernels.standard_kernel("linear")
    X = np.array([[0.01, 0.0], [-0.01, 0.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0])
    model = L.KernelModel(
        support=np.array([[1.0, 0.0]]), alpha=np.array([1.0]), b=0.0,
        C=1.0, kernel=lin, loss=L.make_loss("hinge"),
    )
    # scores: 0.01, -0.01, 0 -> margins 0.01, 0.01, 0
    err01, err_margin, err_surr = L.evaluate(model, (X, y), gamma=0.01)
    assert err01 == pytest.approx(1 / 3)     # zero margin counts as error
    assert err_margin == pytest.approx(1 / 3)  # strict: 0.01 not inside
    err01b, err_marginb, _ = L.evaluate(model, (X, y), gamma=0.01,
                                        boundary_counts=True)
    assert err_marginb == pytest.approx(1.0)
    assert err_surr == pytest.approx((0.99 + 0.99 + 1.0) / 3)
    with pytest.raises(L.LossError):
        L.evaluate(model, (np.zeros((0, 2)), np.zeros(0)), 0.01)
