import dataclasses
import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, linprog, minimize

from marginlab import harness, kernels
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


def hinge_lp_oracle(atoms, C, bias_half=None, two_sided=False):
    """Exact 1-D hinge optimum via linear programming (independent oracle);
    with two_sided, the optimum of the absolute loss |1 - y (s t + b)|."""
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
    if two_sided:  # and xi_i >= y_i (s t_i + b) - 1
        upper = A_ub.copy()
        upper[:, :2] *= -1.0
        A_ub, b_ub = np.vstack([A_ub, upper]), np.concatenate([b_ub, -b_ub])
    bounds = [(-C, C), (-bias_half, bias_half)] + [(0, None)] * n
    c = np.concatenate([[0.0, 0.0], w])
    # at HiGHS's default tolerances the optimum can read 1e-8 off: it takes
    # points up to 1e-7 infeasible, and it drops matrix entries below 1e-9,
    # so an atom at t = 1e-9 counts as one at t = 0; scipy hands
    # small_matrix_value to HiGHS with a warning
    options = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10,
               "small_matrix_value": 1e-12}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options",
                                OptimizeWarning)
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs",
                      options=options)
    assert res.status == 0
    return res.fun


def random_atoms(rng):
    """A random tiny 1-D program: 2-5 weighted atoms and a norm bound C."""
    n = int(rng.integers(2, 6))
    atoms = [(float(rng.uniform(-1, 1)), int(rng.choice([-1, 1])),
              float(rng.uniform(0.1, 1))) for _ in range(n)]
    return atoms, float(rng.uniform(0.5, 3.0))


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------

def test_loss_values_and_slopes():
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    hinge = L.make_loss("hinge")
    assert np.allclose(hinge.value(x), [2.0, 1.0, 0.5, 0.0, 0.0])
    assert np.array_equal(hinge.subgradient(x), [-1.0, -1.0, -1.0, 0.0, 0.0])
    sq = L.make_loss("squared")
    assert np.allclose(sq.value(x), (1 - x) ** 2)
    assert np.allclose(sq.subgradient(x), -2.0 * (1 - x))
    absv = L.make_loss("absolute")
    assert np.allclose(absv.value(x), np.abs(1 - x))
    assert np.array_equal(absv.subgradient(x), [-1.0, -1.0, -1.0, 1.0, 1.0])
    logi = L.make_loss("logistic")
    assert float(logi.value(np.array(0.0))) == pytest.approx(1.0)
    slope = float(logi.subgradient(np.array(0.0)))
    assert slope == pytest.approx(-1.0 / (2 * math.log(2)))
    # subgradient is a finite-difference slope up to convexity
    h = 1e-7
    num = (logi.value(np.array(h)) - logi.value(np.array(-h))) / (2 * h)
    assert float(num) == pytest.approx(slope, abs=1e-6)
    with pytest.raises(L.LossError):
        L.make_loss("nope")


def test_margin_losses():
    C = 4.0
    ml = L.make_loss("margin_loss", C=C)
    x = np.array([-1.0, 0.0, 1.0 / C, 0.5, 2.0])
    assert np.allclose(ml.value(x), [2.0, 1.0, 0.75, 0.75, 0.75])
    tm = L.make_loss("truncated_margin", C=C)
    assert np.allclose(tm.value(x), np.maximum(1 - C * x, 0.0))
    assert np.array_equal(tm.subgradient(x), [-C, -C, 0.0, 0.0, 0.0])
    with pytest.raises(L.LossError):
        L.make_loss("margin_loss", C=0.0)


def test_truncated_margin_scaling_identity():
    # mean truncated-margin loss of f equals mean hinge loss of C*f
    C = 7.0
    tm = L.make_loss("truncated_margin", C=C)
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


SHIPPED_LOSSES = [("hinge", {}), ("squared", {}), ("absolute", {}),
                  ("logistic", {}), ("margin_loss", {"C": 2.0}),
                  ("truncated_margin", {"C": 2.0})]


@pytest.mark.parametrize("name,params", SHIPPED_LOSSES)
def test_zero_subgradient_only_at_loss_minimum(name, params):
    # a zero subgradient marks a minimum of each loss (the margin_loss too:
    # it is flat only at its minimum); the grid holds each knee and, for the
    # logistic, margins where exp overflows and its slope rounds to -0
    loss = L.make_loss(name, **params)
    x = np.concatenate([np.linspace(-5.0, 5.0, 2001),
                        [0.5, 1.0, 1.0 - 1e-16, 0.5 - 1e-16, 700.0, 800.0,
                         1e3, -800.0]])
    with np.errstate(over="ignore"):
        values, slopes = loss.value(x), loss.subgradient(x)
    at_zero = slopes == 0.0
    assert np.all(values[at_zero] == values.min())


@pytest.mark.parametrize("name,params", SHIPPED_LOSSES)
def test_conjugate_recovers_loss(name, params):
    # w l(m) = max {h(a) - a m : a in the box} at each margin, with the box's
    # bounds scaled by w; peak(w) is the maximizer at m = 0, and the term's
    # gradient is its slope
    loss = L.make_loss(name, **params)
    w = np.array([0.3])
    lo, hi = loss.box()
    term = loss.conjugate(w)
    # the squared loss has no box; its maximizer 2 w (1 - m) lies in this one
    grid = np.linspace(max(lo, -8.0), min(hi, 8.0), 20001) * w
    h = np.array([term(np.array([a]))[0] for a in grid])
    for m in (-1.5, -0.2, 0.0, 0.25, 0.5, 0.9, 1.0, 1.7):
        assert float(np.max(h - grid * m)) == pytest.approx(
            float(w[0] * loss.value(np.array(m))), abs=1e-6)
    assert term(loss.peak(w))[0] == pytest.approx(h.max(), abs=1e-9)
    for a in grid[1000:-1000:3000]:
        e = 1e-7
        slope = (term(np.array([a + e]))[0]
                 - term(np.array([a - e]))[0]) / (2 * e)
        grad = np.broadcast_to(term(np.array([a]))[1], 1)[0]
        assert grad == pytest.approx(slope, abs=1e-5)


def reference_bias(loss, scores, y, w, bias_box):
    """PiecewiseLinearLoss's bias search as it was before it bound y and w
    once (bias_search): every call forms y kink and w y and multiplies by
    the jump.  The shipped search must return its bits."""
    kinks = y * loss.kink - scores
    rise = float((w * y).dot(loss.subgradient(y * (scores - bias_box))))
    if rise >= 0.0:
        return -bias_box
    order = np.argsort(kinks)
    kinks = kinks[order]
    first, last = np.searchsorted(kinks, (-bias_box, bias_box), "right")
    jump = (2.0 if loss.two_sided else 1.0) * loss.slope
    k = first + int(np.searchsorted(
        rise + jump * np.cumsum(w[order[first:last]]), 0.0))
    return float(kinks[k]) if k < last else bias_box


def bits(x):
    """The float64 bytes of a number or an array, which tell -0.0 from 0.0."""
    return np.asarray(x, dtype=float).tobytes()


PIECEWISE = [("hinge", {}), ("absolute", {}), ("margin_loss", {"C": 3.0}),
             ("truncated_margin", {"C": 3.0})]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PIECEWISE),
       st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                          st.floats(0.05, 1.0),
                          st.one_of(st.integers(-24, 24),
                                    st.floats(-3.0, 3.0))),
                min_size=1, max_size=12),
       st.sampled_from([10.0, 1.0, 0.25]))
def test_bias_search_matches_reference(loss_params, points, bias_box):
    # an integer k puts point i's kink y_i kink - score_i at k / 8: on the
    # edges of the bias box, on another point's kink or at 0; a float puts
    # it between kinks
    name, params = loss_params
    loss = L.make_loss(name, **params)
    y = np.array([p[0] for p in points])
    w = np.array([p[1] for p in points])
    w = w / w.sum()
    kinks = np.array([p[2] / 8.0 if isinstance(p[2], int) else p[2]
                      for p in points])
    scores = y * loss.kink - kinks
    search = loss.bias_search(y, w, bias_box)
    assert bits(search(y * scores)) == bits(
        reference_bias(loss, scores, y, w, bias_box))


def reference_projector(y, lower, upper):
    """learners._projector as it was before it sorted tops and bottoms
    apart: all kinks sorted together on every call, the free coordinates
    counted by masks.  The shipped projector must return its bits."""
    L_ = np.where(y > 0, lower, -upper)
    U = np.where(y > 0, upper, -lower)
    finite = bool(np.isfinite(L_).all() and np.isfinite(U).all())
    root = [0.0]

    def project(z, scale=1.0):
        c = y * z
        top, bottom = c - U, c - L_
        kinks = np.sort(np.concatenate([top, bottom]))
        if not finite:
            kinks = kinks[np.isfinite(kinks)]
        lo, hi, lam = 0, len(kinks), root[0] * scale
        last, newton = math.inf, False
        while True:
            a = np.minimum(np.maximum(c - lam, L_), U)
            phi = float(a.sum())
            if phi == 0.0:
                break
            if phi > 0.0:
                lo = max(lo, int(np.searchsorted(kinks, lam, "right")))
                free = np.count_nonzero((top <= lam) & (lam < bottom))
                edge = kinks[lo] if lo < len(kinks) else math.inf
                step = lam + phi / free if free else math.inf
                done = step <= edge
            else:
                hi = min(hi, int(np.searchsorted(kinks, lam)))
                free = np.count_nonzero((top < lam) & (lam <= bottom))
                edge = kinks[hi - 1] if hi > 0 else -math.inf
                step = lam + phi / free if free else -math.inf
                done = step >= edge
            if done or lo >= hi:
                lam = step if done else edge
                a = np.minimum(np.maximum(c - lam, L_), U)
                break
            newton = (2 * abs(phi) <= last or not newton) and \
                kinks[lo] <= step <= kinks[hi - 1]
            lam, last = (step if newton else kinks[(lo + hi) // 2]), abs(phi)
        root[0] = lam / scale
        return y * a

    return project


# a coordinate of z: k / 8 for an integer k (ties between kinks, zeros and
# exact roots) or any float in [-4, 4]
z_entries = st.one_of(st.integers(-32, 32).map(lambda k: k / 8.0),
                      st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 12),
       st.sampled_from(["hinge", "absolute", "squared", "logistic",
                        "truncated_margin"]))
def test_projector_matches_reference(data, n, name):
    # a loss's box scaled by random weights, then a run of calls from warm
    # starts, as the solver makes them: z and the scale vary from call to
    # call
    y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                    min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                    max_size=n)))
    lo, hi = L.make_loss(name, C=3.0).box()
    lower, upper = lo * w, hi * w
    shipped = L._projector(y, lower, upper)
    reference = reference_projector(y, lower, upper)
    for _ in range(data.draw(st.integers(1, 6))):
        z = np.array(data.draw(st.lists(z_entries, min_size=n, max_size=n)))
        scale = data.draw(st.sampled_from([1.0, 0.5, 2.0, 1e-3, 37.0]))
        assert bits(shipped(z, scale)) == bits(reference(z, scale))


# ---------------------------------------------------------------------------
# Kernel program.
# ---------------------------------------------------------------------------

def test_kernel_program_matches_lp_oracle():
    rng = np.random.default_rng(7)
    hinge = L.make_loss("hinge")
    lin = kernels.standard_kernel("linear")
    opts = L.SolverOptions(max_iters=600, n_restarts=14)
    for _ in range(6):
        atoms, C = random_atoms(rng)
        model = L.train_kernel_program(lift(atoms), lin, hinge, C, opts)
        lp = hinge_lp_oracle(atoms, C, bias_half=opts.bias_box)
        assert model.objective <= lp + 1e-3
        assert model.objective >= lp - 1e-9  # solver cannot beat the optimum
        # the certificate must say that the run is accurate
        assert model.gap_certificate <= 1e-2


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


@pytest.mark.parametrize("weights", [[1.0, -0.5], [0.0, 0.0],
                                     [1.0, np.nan], [1.0, np.inf],
                                     [1.0, 1.0, 1.0], [1.0]])
def test_invalid_weights_rejected(weights):
    # negative weights trained to a negative "optimum" certified as exact,
    # and all-zero weights to NaN; lengths must match the labels
    X = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    with pytest.raises(L.LossError, match="weights"):
        L.train_kernel_program((X, [1, -1], weights),
                               kernels.standard_kernel("linear"),
                               L.make_loss("hinge"), 2.0,
                               L.SolverOptions(max_iters=10, n_restarts=1))


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


def test_empty_schedule_rejected():
    X = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    for opts in (L.SolverOptions(max_iters=0), L.SolverOptions(n_restarts=0),
                 L.SolverOptions(max_iters=-3, n_restarts=-1)):
        with pytest.raises(L.LossError, match="max_iters and n_restarts"):
            L.train_kernel_program((X, [1, -1]),
                                   kernels.standard_kernel("linear"),
                                   L.make_loss("hinge"), 2.0, opts)


def test_one_gram_product_per_iteration(monkeypatch):
    counter = {"products": 0, "iters": 0}
    gram_product = L.gram_product

    def counting_product(G, u):
        counter["products"] += 1
        return gram_product(G, u)

    monkeypatch.setattr(L, "gram_product", counting_product)
    hinge = L.make_loss("hinge")

    def subgradient(x):  # one call per iterate, in its bias search
        counter["iters"] += 1
        return hinge.subgradient(x)

    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(X[:, 0] + 0.2 * rng.standard_normal(40))
    runs = []
    for opts in (L.SolverOptions(max_iters=5, n_restarts=3),
                 L.SolverOptions(max_iters=300, n_restarts=3)):
        counter.update(products=0, iters=0)
        model = L.train_kernel_program(
            (X, y), kernels.standard_kernel("rbf"),
            dataclasses.replace(hinge, subgradient=subgradient), 2.0, opts)
        # the first iterate's product, then one per step; the norm is free
        assert counter["products"] == counter["iters"]
        runs.append((counter["products"], model.gap_certificate <= L.GAP_TOL))
    # the short budget is spent with the bracket open; the long one is not
    (short, short_closed), (long, long_closed) = runs
    assert short == 15 and not short_closed
    assert long < 900 and long_closed


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
        L.SolverOptions(max_iters=10, n_restarts=2))
    assert model.norm <= 2.0 * (1 + 1e-9)
    assert 1 <= len(calls) <= 10 * 2
    for lower_in_place, expected, got, scale in calls:
        assert lower_in_place
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_carried_scores_match_recomputed_objective():
    # the solver updates Q a instead of recomputing it; the returned
    # objective and norm must still be those of the returned alpha and b
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.sign(X[:, 0] + 0.3 * rng.standard_normal(80))
    opts = L.SolverOptions(max_iters=200, n_restarts=5)
    k = kernels.standard_kernel("rbf")
    K = kernels.cross_gram(k, X, X)
    for name, params in SHIPPED_LOSSES:
        loss = L.make_loss(name, **params)
        model = L.train_kernel_program((X, y), k, loss, 3.0, opts)
        scores = K @ model.alpha + model.b
        assert float(np.mean(loss.value(y * scores))) == pytest.approx(
            model.objective, abs=1e-12)
        assert model.norm == pytest.approx(
            math.sqrt(model.alpha @ K @ model.alpha), abs=1e-12)
        assert model.norm <= 3.0


TINY_OPTS = L.SolverOptions(max_iters=100, n_restarts=3)
# the schedule of the benchmark's tiny programs
BENCH_OPTS = L.SolverOptions(max_iters=600, n_restarts=14)
ORACLE_TOL = 1e-3  # the benchmark's gate on the tiny programs
atom_lists = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.sampled_from([-1, 1]),
              st.floats(0.1, 1.0)),
    min_size=2, max_size=5)


def bracket_faults(model, optimum):
    """How a solve's bracket [objective - certificate, objective] misses a
    program's exact optimum; [] if it holds it and is narrower than the
    benchmark's gate."""
    checks = {
        "dual": model.objective - model.gap_certificate <= optimum + 1e-9,
        "primal": optimum <= model.objective + 1e-9,
        "width": model.gap_certificate <= ORACLE_TOL,
    }
    return [name for name, ok in checks.items() if not ok]


@settings(max_examples=30, deadline=None)
@given(atom_lists, st.floats(0.5, 3.0))
# the norm bound is slack at the optimum: the steps zigzag along the
# smoothed support term's valley, and the bracket closes only once the
# loop extrapolates along it
@example(atoms=[(0.0, -1, 1.0), (1.0, 1, 1.0), (-1.0, 1, 1.0),
                (-0.25, -1, 1.0), (-0.375, -1, 1.0)], C=2.0)
# an atom at t = 1e-9, which HiGHS at its default settings solves as t = 0
@example(atoms=[(-0.4595818863061386, -1, 0.2772064986959446),
                (1e-09, 1, 0.5067077465550208),
                (1e-09, 1, 0.5067077465550208),
                (-0.4595818863061386, -1, 0.2772064986959446),
                (-0.4595818863061386, -1, 0.2772064986959446)],
         C=2.7398561116547384)
def test_dual_bounds_bracket_lp_optimum(atoms, C):
    model = L.train_kernel_program(lift(atoms),
                                   kernels.standard_kernel("linear"),
                                   L.make_loss("hinge"), C, TINY_OPTS)
    lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box)
    assert bracket_faults(model, lp) == []


@pytest.mark.parametrize("name", ["hinge", "truncated_margin", "margin_loss"])
def test_hinge_family_matches_lp_oracle(name):
    # truncated_margin(c) of f is the hinge of c f, and margin_loss(c) is
    # 1 - 1/c plus truncated_margin(c) / c: each program is a hinge program
    # on the ball of radius c C with the bias box scaled by c
    c = 3.0
    loss = L.make_loss(name, C=c)
    scale, offset, factor = {"hinge": (1.0, 0.0, 1.0),
                             "truncated_margin": (c, 0.0, 1.0),
                             "margin_loss": (c, 1.0 - 1.0 / c, 1.0 / c)}[name]
    rng = np.random.default_rng(14)
    for _ in range(10):
        atoms, C = random_atoms(rng)
        lp = hinge_lp_oracle(atoms, C * scale,
                             bias_half=TINY_OPTS.bias_box * scale)
        optimum = offset + factor * lp
        model = L.train_kernel_program(lift(atoms),
                                       kernels.standard_kernel("linear"),
                                       loss, C, TINY_OPTS)
        assert bracket_faults(model, optimum) == []
        assert model.gap_certificate <= L.GAP_TOL


def test_absolute_loss_certificate_below_lp_optimum():
    # the two-sided loss has the box [-w, w]; its bracket closes to the stop
    # on every program
    rng = np.random.default_rng(12)
    for _ in range(20):
        atoms, C = random_atoms(rng)
        lp = hinge_lp_oracle(atoms, C, bias_half=BENCH_OPTS.bias_box,
                             two_sided=True)
        model = L.train_kernel_program(lift(atoms),
                                       kernels.standard_kernel("linear"),
                                       L.make_loss("absolute"), C, BENCH_OPTS)
        assert bracket_faults(model, lp) == []
        assert abs(model.objective - lp) <= 1e-4
        assert model.gap_certificate <= L.GAP_TOL


def smooth_oracle(atoms, C, loss, bias_box):
    """The 1-D program min sum w l(y (s t + b)) over |s| <= C, |b| <=
    bias_box of a smooth loss, by scipy's L-BFGS-B from a few starts: an
    upper bound on the optimum, and a tight one."""
    t = np.array([a[0] for a in atoms])
    y = np.array([a[1] for a in atoms], dtype=float)
    w = np.array([a[2] for a in atoms], dtype=float)
    w = w / w.sum()

    def objective(p):
        return float(w.dot(loss.value(y * (p[0] * t + p[1]))))

    return min(minimize(objective, start, method="L-BFGS-B",
                        bounds=[(-C, C), (-bias_box, bias_box)],
                        options={"ftol": 1e-15, "gtol": 1e-12}).fun
               for start in ([0.0, 0.0], [C / 2, 1.0], [-C / 2, -1.0]))


@pytest.mark.parametrize("name", ["squared", "logistic"])
def test_smooth_losses_bracket_minimize_oracle(name):
    # with labels of one sign, y' a = 0 leaves the logistic dual a = 0 alone
    # (its optimal bias is bias_box), so only mixed labels are asked to
    # close there; the squared loss's optimal bias is inside the box, so
    # every one of its programs closes, those where the norm bound is slack
    # (the smoothed support term is stiff there) included
    loss = L.make_loss(name)
    rng = np.random.default_rng(13)
    for _ in range(10):
        atoms, C = random_atoms(rng)
        upper = smooth_oracle(atoms, C, loss, BENCH_OPTS.bias_box)
        model = L.train_kernel_program(lift(atoms),
                                       kernels.standard_kernel("linear"),
                                       loss, C, BENCH_OPTS)
        assert model.objective - model.gap_certificate <= upper + 1e-9
        assert model.objective >= upper - 1e-9
        if name == "squared" or len({label for _, label, _ in atoms}) == 2:
            assert model.objective <= upper + L.GAP_TOL
            assert model.gap_certificate <= L.GAP_TOL


def caught_mutation(module):
    """Number of 10 random tiny hinge programs on which a planted bug breaks
    the LP bracket; unmutated, each holds it."""
    rng = np.random.default_rng(11)
    caught = 0
    for _ in range(10):
        atoms, C = random_atoms(rng)
        lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box)
        for learners in (L, module):
            model = learners.train_kernel_program(
                lift(atoms), kernels.standard_kernel("linear"),
                learners.make_loss("hinge"), C, TINY_OPTS)
            faults = bracket_faults(model, lp)
            assert learners is module or faults == []
        caught += bool(faults)
    return caught


def test_mutated_support_sign_is_caught(mutated):
    # adding C sqrt(a' Q a) to the bound instead of subtracting it
    assert caught_mutation(mutated(
        L, "bound = h - C * sqrt(aQa)", "bound = h + C * sqrt(aQa)")) > 0


@pytest.mark.parametrize("old, new", [
    # the support term without its square root
    ("bound = h - C * sqrt(aQa)", "bound = h - C * aQa"),
    # each point's kink in the bias search taken at kink - scores
    ("kinks = yk - y * margins", "kinks = self.kink - y * margins"),
    # a projection onto the box alone, which misses y' a = 0
    ("root[0] = lam / scale\n        return y * a",
     "return y * np.clip(c, L, U)"),
], ids=["dropped_sqrt", "bias_kink", "projection_misses_y"])
def test_mutated_dual_solver_is_caught(mutated, old, new):
    assert caught_mutation(mutated(L, old, new)) > 0


def test_mutated_projector_count_raises(mutated):
    # the free coordinates counted on the wrong side of lam where phi > 0:
    # once lam sits on the middle kink of a bracket of one kink, lo stays
    # put and the search picks that kink again; the cap on its rounds turns
    # the hang into a LossError, within 2m + 1 = 9 evaluations of phi
    y = np.array([1.0, -1.0, -1.0, -1.0])
    upper = np.array([0.25, 0.5, 1.0, 0.25])
    z = np.array([-1.0, 1.75, 0.5, 1.75])
    a = L._projector(y, 0.0 * upper, upper)(z)
    assert np.array_equal(a, [0.25, 0.125, 0.0, 0.125])
    miscounted = mutated(L, 'side = "right" if rising else "left"',
                         'side = "left"')
    with pytest.raises(miscounted.LossError, match="miscounted"):
        miscounted._projector(y, 0.0 * upper, upper)(z)


def test_bracket_stop_fires(mutated):
    # the tiny programs close their brackets in a few products, far inside
    # the budget, and a run to the budget ends within GAP_TOL of the stop
    rng = np.random.default_rng(11)
    hinge, lin = L.make_loss("hinge"), kernels.standard_kernel("linear")
    no_stop = mutated(L, "if gap <= GAP_TOL or", "if gap < 0 or")
    budget = TINY_OPTS.max_iters * TINY_OPTS.n_restarts
    saved = 0
    for _ in range(10):
        atoms, C = random_atoms(rng)
        calls = []
        program = (lift(atoms), lin, dataclasses.replace(
            hinge, subgradient=lambda x: calls.append(x) or hinge.subgradient(x)),
            C, TINY_OPTS)
        model = L.train_kernel_program(*program)
        assert model.gap_certificate <= L.GAP_TOL
        saved += budget - len(calls)
        full = no_stop.train_kernel_program(*program)
        assert model.objective - L.GAP_TOL <= full.objective <= model.objective
    assert saved >= 9 * budget


def test_stop_on_certified_gap_is_caught(mutated):
    # stopping once the certificate reads <= eps_opt (0.1) leaves the
    # objective above the LP optimum by more than the oracle's tolerance, on
    # the programs and schedule on which test_kernel_program_matches_lp_oracle
    # shows the shipped solver within it
    early = mutated(L, "if gap <= GAP_TOL or", "if gap <= opts.eps_opt or")
    rng = np.random.default_rng(7)
    opts = L.SolverOptions(max_iters=600, n_restarts=14)
    caught = 0
    for _ in range(6):
        atoms, C = random_atoms(rng)
        lp = hinge_lp_oracle(atoms, C, bias_half=opts.bias_box)
        model = early.train_kernel_program(
            lift(atoms), kernels.standard_kernel("linear"),
            L.make_loss("hinge"), C, opts)
        caught += model.objective > lp + 1e-3
    assert caught > 0


# ---------------------------------------------------------------------------
# The float32 path: kernels.F32_MIN_N training points or more.
# ---------------------------------------------------------------------------

def large_atoms(seed):
    """A 1-D program on F32_MIN_N atoms with noisy labels, so that kernels.gram
    stores its Gram matrix in float32."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1, 1, kernels.F32_MIN_N)
    y = np.where(t + 0.3 * rng.standard_normal(len(t)) > 0, 1, -1)
    w = rng.uniform(0.1, 1, len(t))
    return list(zip(t, y, w)), float(rng.uniform(0.5, 3.0))


def float64_recomputed(model, data):
    """(objective, norm) of a trained model from the float64 kernel matrix,
    the matrix the solver's numbers refer to."""
    X, y, w = data
    Ka = kernels.cross_gram(model.kernel, X, X) @ model.alpha
    objective = float(np.dot(w / w.sum(), model.loss.value(y * (Ka + model.b))))
    return objective, math.sqrt(float(model.alpha @ Ka))


@pytest.fixture(scope="module")
def float32_programs():
    """(data, kernel, loss, C, opts, LP optimum or None) of programs on the
    float32 path: three lifted 1-D hinge programs, and an rbf program under
    two losses on a ball so small that the end pass can rescale alpha."""
    programs = []
    for seed in range(3):
        atoms, C = large_atoms(seed)
        programs.append((lift(atoms), kernels.standard_kernel("linear"),
                         L.make_loss("hinge"), C, TINY_OPTS,
                         hinge_lp_oracle(atoms, C,
                                         bias_half=TINY_OPTS.bias_box)))
    rng = np.random.default_rng(1)
    X = rng.standard_normal((kernels.F32_MIN_N, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    data = (X, np.sign(X[:, 0] + 0.3 * rng.standard_normal(len(X))),
            np.ones(len(X)))
    for name in ("hinge", "logistic"):
        programs.append((data, kernels.standard_kernel("rbf"),
                         L.make_loss(name), 0.5,
                         L.SolverOptions(max_iters=60, n_restarts=1), None))
    return programs


def float32_faults(module, data, kernel, loss, C, opts, lp):
    """Faults of one solve on the float32 path against a float64
    recomputation and, given one, the LP optimum; none in the shipped
    module."""
    model = module.train_kernel_program(data, kernel, loss, C, opts)
    objective, norm = float64_recomputed(model, data)
    checks = {
        "objective": abs(model.objective - objective) <= 1e-12,
        "norm": abs(model.norm - norm) <= 1e-12 * C,
        "ball": max(model.norm, norm) <= C * (1 + 1e-12),
        "certificate": model.gap_certificate >= -1e-12,
    }
    if lp is not None:
        checks["bracket"] = model.objective - model.gap_certificate <= lp + 1e-9
        checks["primal"] = lp <= model.objective + 1e-9
    return [name for name, ok in checks.items() if not ok]


def test_float32_path_reports_exact_numbers(float32_programs):
    for program in float32_programs:
        assert float32_faults(L, *program) == []


@pytest.mark.parametrize("old, new, fault", [
    # the objective the float32 loop carried, not the end pass's
    ("objective = float(wts.dot(value(y * (Kalpha + b))))",
     "objective = best_f", "objective"),
    # the norm re-derived from the float32 triangle
    ("norm = sqrt(max(float(alpha.dot(Kalpha)), 0.0))",
     "norm = sqrt(max(float(alpha @ gram_product(G, alpha)), 0.0))", "norm"),
    # alpha left where the exact norm puts it outside the ball
    ("if norm > C:", "if False:", "ball"),
], ids=["carried_objective", "float32_norm", "no_rescale"])
def test_mutated_float32_end_pass_is_caught(mutated, old, new, fault,
                                            float32_programs):
    module = mutated(L, old, new)
    assert any(fault in float32_faults(module, *program)
               for program in float32_programs)


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


def float64_errors(model, X, y, gamma):
    """(err01, err_margin strict, err_margin with boundary, err_surrogate)
    of the float64 path, decision_function."""
    margins = y * model.decision_function(X)
    return (float(np.mean(margins <= 0.0)), float(np.mean(margins < gamma)),
            float(np.mean(margins <= gamma)),
            float(np.mean(model.loss.value(margins))))


def screened_errors(module, model, X, y, gamma):
    """The same numbers from module.evaluate, both margin conventions."""
    err01, strict, surrogate = module.evaluate(model, (X, y), gamma)
    _, boundary, _ = module.evaluate(model, (X, y), gamma,
                                     boundary_counts=True)
    return err01, strict, boundary, surrogate


@pytest.fixture(scope="module")
def planted_models():
    """(model, X, y, gamma) with test points whose float64 margin is
    exactly 0 or exactly gamma, on a screened model.

    The support repeats four points, each with one weight, so every
    screened score makes the same float32 roundings F32_MIN_N / 4 times
    over and sits farther from its float64 value, relative to the bound,
    than under random weights.  b = -s_i puts point i's score at 0, and gamma is
    the float64 margin of another point j."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((4, 8))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    support = np.tile(base, (kernels.F32_MIN_N // 4, 1))
    alpha = np.tile(rng.uniform(0.5, 1.0, 4) * [1.0, -1.0, 1.0, -1.0],
                    kernels.F32_MIN_N // 4)
    X = rng.standard_normal((2 * L.TEST_BLOCK + 50, 8))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = rng.choice([-1.0, 1.0], len(X))
    k = kernels.standard_kernel("rbf", sigma=1.0)
    scores = L.KernelModel(support, alpha, 0.0, 1.0, k,
                           L.make_loss("hinge")).decision_function(X)
    planted = []
    for i in rng.choice(len(X), 8, replace=False):
        model = L.KernelModel(support, alpha, -float(scores[i]), 1.0, k,
                              L.make_loss("hinge"))
        margins = y * model.decision_function(X)
        gamma = float(rng.choice(margins[margins > 0.0]))
        assert margins[i] == 0.0
        planted.append((model, X, y, gamma))
    return planted


def planted_faults(module, planted):
    """Planted cases where module.evaluate's err01 or err_margin differ
    from the float64 path's."""
    return sum(screened_errors(module, *case)[:3]
               != float64_errors(*case)[:3] for case in planted)


def test_planted_thresholds_match_float64(planted_models):
    for model, X, y, gamma in planted_models:
        assert kernels.screens(model.kernel, len(model.support))
        assert np.count_nonzero(y * model.decision_function(X) == gamma) >= 1
    assert planted_faults(L, planted_models) == 0


@pytest.mark.parametrize("old, new", [
    # screened scores taken as they are
    ("for lo in np.unique(", "for lo in []:  # "),
    # a bound a thousand times too small
    ("np.abs(margins - gamma)) > bound",
     "np.abs(margins - gamma)) > 1e-3 * bound"),
    # the undecided rows rescored alone, not in their blocks
    ("scores[lo:lo + TEST_BLOCK] = model.decision_function(\n"
     "            X[lo:lo + TEST_BLOCK])",
     "rows = np.flatnonzero(~decided)\n"
     "        scores[rows] = model.decision_function(X[rows])"),
], ids=["no_recheck", "bound_1e-3", "rows_alone"])
def test_mutated_screen_is_caught(mutated, old, new, planted_models):
    assert planted_faults(mutated(L, old, new), planted_models) > 0


def test_float32_trial_errors_match_float64():
    # a trial on F32_MIN_N training points, scored through the screen: the
    # errors equal the float64 path's, and the hinge loss, 1-Lipschitz,
    # moves by at most the mean bound
    cfg = harness.ExperimentConfig(
        d=25, gamma=0.01, theta=0.7, lambda3=0.02, kernel="rbf",
        kernel_params={"sigma": 1.0}, C=20.0, loss="hinge",
        n_train=kernels.F32_MIN_N, n_test=3000, max_iters=10, n_restarts=1,
        seed=3)
    trial = harness.Trial(cfg, 3)
    model = trial.model
    X, y = trial.test_data[:2]
    assert kernels.screens(model.kernel, len(model.support))
    got = screened_errors(L, model, X, y, cfg.gamma)
    want = float64_errors(model, X, y, cfg.gamma)
    assert got[:3] == want[:3]
    _, bound = kernels.screened_scores(model.kernel, X, model.support,
                                       model.alpha)
    assert abs(got[3] - want[3]) <= float(np.mean(bound))


def test_concurrent_trainings_never_share_a_triangle(monkeypatch):
    # two float32-size trainings hold their triangles at once, with one
    # spare of their size to take: the first takes it, the second, started
    # once the first is in its loop, builds on a fresh mapping, and both
    # give the models of trainings one at a time
    monkeypatch.setattr(kernels, "_spare", None)
    monkeypatch.setattr(kernels, "F32_MIN_N", 100)
    monkeypatch.setattr(kernels, "PROFILE_BLOCK", 2**10)
    cfg = harness.ExperimentConfig(
        d=8, gamma=0.02, theta=0.7, lambda3=0.05, kernel="rbf",
        kernel_params={"sigma": 2.0}, C=3.0, n_train=150, n_test=10,
        max_iters=30, n_restarts=1)
    trial = harness.Trial(cfg, 0)
    args = (trial.train_data, cfg.make_kernel(), cfg.make_loss(), cfg.C,
            cfg.solver_opts())
    alone = [L.train_kernel_program(*args) for _ in range(2)]
    spare = kernels._spare
    assert spare is not None
    held, looping, both = [], [], threading.Barrier(2)
    gram, gram_product = L.gram, L.gram_product

    def holding(kernel, X):
        held.append(gram(kernel, X))
        return held[-1]

    def product(G, u):  # a training's first product waits for the other's
        if threading.get_ident() not in looping:
            looping.append(threading.get_ident())
            both.wait(timeout=60)
        return gram_product(G, u)

    monkeypatch.setattr(L, "gram", holding)
    monkeypatch.setattr(L, "gram_product", product)
    models = [None, None]

    def train(i):
        models[i] = L.train_kernel_program(*args)

    threads = [threading.Thread(target=train, args=(i,)) for i in range(2)]
    threads[0].start()
    deadline = time.monotonic() + 60
    while not looping and time.monotonic() < deadline:
        time.sleep(0.001)
    threads[1].start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(held) == 2 and not np.shares_memory(*held)
    assert held[0].base is spare and held[1].base is not spare
    for model, want in zip(models + alone, alone * 2):
        assert np.array_equal(model.alpha, want.alpha)
        assert (model.b, model.objective, model.gap_certificate) == \
            (want.b, want.objective, want.gap_certificate)
