import dataclasses
import inspect
import math
import sys
import types
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
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
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
    assert sq.lipschitz == math.inf
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
    # the solver stops on u = 0, which is optimal only if each loss is at
    # its minimum wherever its subgradient is 0 (the margin_loss too: it is
    # flat only at its minimum); the grid holds each knee and, for the
    # logistic, margins where exp overflows and its slope rounds to -0
    loss = L.make_loss(name, **params)
    x = np.concatenate([np.linspace(-5.0, 5.0, 2001),
                        [0.5, 1.0, 1.0 - 1e-16, 0.5 - 1e-16, 700.0, 800.0,
                         1e3, -800.0]])
    with np.errstate(over="ignore"):
        values, slopes = loss.value(x), loss.subgradient(x)
    at_zero = slopes == 0.0
    assert np.all(values[at_zero] == values.min())


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
    # and one more, for the returned model's norm
    assert counter["products"] == counter["iters"] + 1


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
    k = kernels.standard_kernel("rbf")
    K = kernels.cross_gram(k, X, X) + L.GRAM_JITTER * np.eye(len(X))
    for name in ("hinge", "logistic", "absolute"):
        loss = L.make_loss(name)
        model = L.train_kernel_program((X, y), k, loss, 3.0, opts)
        scores = K @ model.alpha + model.b
        assert float(np.mean(loss.value(y * scores))) == pytest.approx(
            model.objective, abs=1e-12)


def mutated_learners(old, new):
    """A copy of the learners module with one planted source change."""
    source = inspect.getsource(L)
    assert source.count(old) == 1
    module = types.ModuleType("marginlab.mutated_learners")
    module.__package__ = "marginlab"
    # dataclasses look their module up in sys.modules
    with mock.patch.dict(sys.modules, {module.__name__: module}):
        exec(compile(source.replace(old, new), L.__file__, "exec"),
             module.__dict__)
    return module


def solve_recording_bound(atoms, C, opts, loss="hinge", flip_support=False,
                          module=L):
    """Train a tiny linear-kernel program; also return every lower bound the
    solver computed, at each iterate and at each stage's average.
    flip_support plants a sign error in the support term C sqrt(u' G u)."""
    original = module._dual_bound
    bounds = []

    def recording(phi, gb, support, bias_box):
        bounds.append(original(phi, gb, -support if flip_support else support,
                               bias_box))
        return bounds[-1]

    base = L.make_loss(loss)
    subgradients = []

    def subgradient(x):
        subgradients.append(base.subgradient(x))
        return subgradients[-1]

    with mock.patch.object(module, "_dual_bound", recording):
        model = module.train_kernel_program(
            lift(atoms), kernels.standard_kernel("linear"),
            dataclasses.replace(base, subgradient=subgradient), C, opts)
    # one bound per iteration run and one per completed stage; a run ends
    # early only on a zero subgradient, inside a stage it does not complete
    iters = len(subgradients)
    if subgradients[-1].any():
        assert iters == opts.max_iters * opts.n_restarts
        completed = opts.n_restarts
    else:
        completed = (iters - 1) // opts.max_iters
    assert len(bounds) == iters + completed
    return model, max(bounds)


TINY_OPTS = L.SolverOptions(max_iters=100, n_restarts=3)
atom_lists = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.sampled_from([-1, 1]),
              st.floats(0.1, 1.0)),
    min_size=2, max_size=5)


@settings(max_examples=30, deadline=None)
@given(atom_lists, st.floats(0.5, 3.0))
def test_dual_bounds_bracket_lp_optimum(atoms, C):
    model, lower = solve_recording_bound(atoms, C, TINY_OPTS)
    lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box)
    assert lower <= lp + 1e-9
    assert model.objective - model.gap_certificate <= lp + 1e-9
    # the Gram jitter eps lets the solver move each score by up to
    # C sqrt(eps) beyond the LP's feasible set (all atoms at t = 0 reach it)
    assert lp <= model.objective + C * math.sqrt(L.GRAM_JITTER)


def test_absolute_loss_certificate_below_lp_optimum():
    # for the absolute loss phi = f - u . scores - b gb is not simply the sum
    # of the active weights, as it is for the hinge
    rng = np.random.default_rng(12)
    for _ in range(20):
        atoms, C = random_atoms(rng)
        lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box,
                             two_sided=True)
        model, lower = solve_recording_bound(atoms, C, TINY_OPTS, "absolute")
        assert lower <= lp + 1e-9
        assert model.objective - model.gap_certificate <= lp + 1e-9
        assert lp <= model.objective + C * math.sqrt(L.GRAM_JITTER)


def caught_mutation(**mutation):
    """Number of 10 random tiny programs on which a planted bug breaks the
    bracket lower bound <= LP optimum; unmutated, each must hold."""
    rng = np.random.default_rng(11)
    caught = 0
    for _ in range(10):
        atoms, C = random_atoms(rng)
        lp = hinge_lp_oracle(atoms, C, bias_half=TINY_OPTS.bias_box)
        _, lower = solve_recording_bound(atoms, C, TINY_OPTS)
        assert lower <= lp + 1e-9
        model, mutated = solve_recording_bound(atoms, C, TINY_OPTS,
                                               **mutation)
        caught += (mutated > lp + 1e-9
                   and model.objective - model.gap_certificate > lp + 1e-9)
    return caught


def test_mutated_support_sign_is_caught():
    # adding C sqrt(u' G u) instead of subtracting it
    assert caught_mutation(flip_support=True) > 0


def test_unnormalized_stage_average_is_caught():
    # a stage average of the phi values left as the eta-weighted sum
    unnormalized = mutated_learners("avg_phi / sum_eta", "avg_phi")
    assert caught_mutation(module=unnormalized) > 0


WITHOUT_STOP = mutated_learners(
    "if unorm == 0.0 and gb == 0.0 and not u.any():", "if False:")


def same_bits(a, b):
    return (a.alpha.tobytes() == b.alpha.tobytes() and a.b == b.b
            and a.objective == b.objective)


@settings(max_examples=25, deadline=None)
@given(atom_lists, st.floats(0.5, 3.0))
def test_zero_subgradient_stop_keeps_every_bit(atoms, C):
    # the stop skips only iterations that cannot change the result
    for name, params in SHIPPED_LOSSES:
        program = (lift(atoms), kernels.standard_kernel("linear"),
                   L.make_loss(name, **params), C, TINY_OPTS)
        model = L.train_kernel_program(*program)
        assert same_bits(model, WITHOUT_STOP.train_kernel_program(*program))


def test_zero_subgradient_stop_fires():
    # separable tiny programs reach u = 0, and the stop saves iterations there
    rng = np.random.default_rng(11)
    hinge = L.make_loss("hinge")
    saved = 0
    for _ in range(10):
        atoms, C = random_atoms(rng)
        calls = []
        counted = dataclasses.replace(
            hinge, subgradient=lambda x: calls.append(x) or hinge.subgradient(x))
        program = (lift(atoms), kernels.standard_kernel("linear"), counted, C,
                   TINY_OPTS)
        model = L.train_kernel_program(*program)
        saved += TINY_OPTS.max_iters * TINY_OPTS.n_restarts - len(calls)
        assert same_bits(model, WITHOUT_STOP.train_kernel_program(*program))
    assert saved > 0


def test_stop_on_certified_gap_is_caught():
    # stopping once the certificate reads <= eps_opt (0.1) leaves the
    # objective above the LP optimum by more than the oracle's tolerance, on
    # the programs and schedule on which test_kernel_program_matches_lp_oracle
    # shows the shipped solver within it
    early = mutated_learners(
        "if unorm == 0.0 and gb == 0.0 and not u.any():",
        "if best_f - lower <= opts.eps_opt:")
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
    """(objective, norm) of a trained model from the float64 kernel matrix
    plus GRAM_JITTER I, the matrix the solver's numbers refer to."""
    X, y, w = data
    Ka = (kernels.cross_gram(model.kernel, X, X) @ model.alpha
          + L.GRAM_JITTER * model.alpha)
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
        checks["jitter"] = lp <= model.objective + C * math.sqrt(L.GRAM_JITTER)
    return [name for name, ok in checks.items() if not ok]


def test_float32_path_reports_exact_numbers(float32_programs):
    for program in float32_programs:
        assert float32_faults(L, *program) == []


@pytest.mark.parametrize("old, new, fault", [
    # the objective the float32 loop carried, not the end pass's
    ("objective = float(wts.dot(value(y * (scores + b))))",
     "objective = best_f", "objective"),
    # the norm re-derived from the float32 triangle
    ("norm = sqrt(max(float(alpha.dot(scores)), 0.0))",
     "norm = sqrt(max(float(alpha @ gram_product(G, alpha)), 0.0))", "norm"),
    # alpha left where the exact norm puts it outside the ball
    ("if norm > C:", "if False:", "ball"),
], ids=["carried_objective", "float32_norm", "no_rescale"])
def test_mutated_float32_end_pass_is_caught(old, new, fault,
                                            float32_programs):
    mutated = mutated_learners(old, new)
    assert any(fault in float32_faults(mutated, *program)
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
