import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marginlab import geometry, sphere
from marginlab.geometry import WeightedAtomMeasure
from marginlab.sphere import RngStream


def brute_force_symmetric_ellipse(points, grid=400):
    """Smallest-area axis-aligned ellipse ax^2 + cy^2 <= 1 covering +/-points.

    Valid oracle for point sets whose symmetric MVEE is axis-aligned.
    """
    best = None
    for ax in np.linspace(1e-3, 1.0, grid):
        # largest c keeping every point inside: c <= (1 - a x^2) / y^2
        c_max = math.inf
        feasible = True
        for x, y in points:
            rem = 1.0 - ax * x * x
            if rem < -1e-12:
                feasible = False
                break
            if y != 0:
                c_max = min(c_max, max(rem, 0.0) / (y * y))
        if not feasible or not math.isfinite(c_max) or c_max <= 0:
            continue
        area = 1.0 / math.sqrt(ax * c_max)  # proportional to the true area
        if best is None or area < best[0]:
            best = (area, ax, c_max)
    return best[1], best[2]


def unit_rows(rng, n, m):
    g = rng.standard_normal((n, m))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def assert_john_ratio(pts, ell, rng, probes=200):
    # the shrunk ellipsoid E / sqrt(m (1+eps)) lies in conv(+/-pts): compare
    # support functions along random directions
    m = pts.shape[1]
    Minv = np.linalg.inv(ell.shape)
    for _ in range(probes):
        u = sphere.sample_unit_sphere(m, rng)
        lhs = float(np.max(np.abs(pts @ u)))
        rhs = math.sqrt(float(u @ Minv @ u) / (m * (1 + geometry.MVEE_EPS)))
        assert lhs >= rhs * (1.0 - 1e-12)


def test_mvee_symmetric_cross():
    pts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    ell = geometry.mvee(pts, symmetric=True)
    a, c = brute_force_symmetric_ellipse([(1, 0), (0, 1)])
    assert np.allclose(np.diag(ell.shape), [a, c], atol=5e-3)
    assert np.allclose(ell.shape, np.eye(2), atol=5e-3)
    assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS


def test_mvee_symmetric_corners():
    pts = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    ell = geometry.mvee(pts, symmetric=True)
    a, c = brute_force_symmetric_ellipse([(1, 1)])
    assert a == pytest.approx(0.5, abs=5e-3)
    assert np.allclose(ell.shape, 0.5 * np.eye(2), atol=5e-3)


def test_mvee_nonsymmetric_contains_and_centers():
    rng = RngStream(1, 0)
    pts = rng.gen.uniform(-1, 1, size=(40, 3)) + np.array([5.0, 0.0, 0.0])
    ell = geometry.mvee(pts)
    assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS
    assert abs(ell.center[0] - 5.0) < 0.5


def test_mvee_rank_deficiency():
    with pytest.raises(geometry.RankDeficiencyError) as err:
        geometry.mvee(np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]]),
                      symmetric=True)
    assert err.value.rank == 1 and err.value.ambient == 2
    with pytest.raises(geometry.RankDeficiencyError):
        geometry.mvee(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(geometry.GeometryError):
        geometry.mvee(np.eye(2), symmetric=True, eps=0.5)


def test_john_ratio_support_function():
    rng = RngStream(2, 0)
    for m in (2, 3, 5, 10):
        pts = np.array([sphere.sample_unit_sphere(m, rng)
                        for _ in range(15 * m)])
        assert_john_ratio(pts, geometry.mvee(pts, symmetric=True), rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1),
       st.data())
def test_mvee_contains_random_points(m, symmetric, seed, data):
    dim = m if symmetric else m + 1
    n = data.draw(st.integers(dim, 20 * dim))
    spread = data.draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-spread, spread, m)
    if not symmetric:
        pts += data.draw(st.floats(0.0, 5.0)) * rng.standard_normal(m)
    lifted = pts if symmetric else np.hstack([pts, np.ones((n, 1))])
    assume(np.linalg.matrix_rank(lifted) == dim)
    # the ascent took at most 161 Cholesky evaluations over six runs of
    # 10 000 examples of this strategy (99.9% of 20 000 uniform draws took
    # at most 93); a cap of 2.5 times that fails a loop that has slowed
    # down well before it reaches MVEE_MAX_ITERS
    with mock.patch.object(geometry, "MVEE_MAX_ITERS", 400):
        ell = geometry.mvee(pts, symmetric=symmetric)
    assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS
    if symmetric:
        assert_john_ratio(pts, ell, RngStream(seed, 1), probes=50)


def test_mvee_one_dimension():
    pts = np.array([[0.3], [-1.7], [1.2], [0.9]])
    # symmetric: one full step onto the longest point gives the exact interval
    ell = geometry.mvee(pts, symmetric=True)
    assert ell.shape[0, 0] == pytest.approx(1.0 / 1.7**2, rel=1e-12)
    assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS
    # general: the interval [min, max] within eps
    ell = geometry.mvee(pts)
    assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS
    assert ell.center[0] == pytest.approx(-0.25, abs=2e-2)
    assert ell.shape[0, 0] == pytest.approx(1.0 / 1.45**2, rel=5e-3)


def test_mvee_as_many_points_as_dimensions():
    # n = dim: uniform weights are optimal, so every point lies on the boundary
    rng = RngStream(8, 0)
    for m in (1, 3, 6):
        P = rng.gen.standard_normal((m, m))
        quad = geometry.mvee(P, symmetric=True).quad(P)
        assert np.allclose(quad, 1.0, atol=1e-9)
        S = rng.gen.standard_normal((m + 1, m))  # a simplex
        quad = geometry.mvee(S).quad(S)
        assert np.allclose(quad, m / (m + geometry.MVEE_EPS * (m + 1)),
                           atol=1e-9)


def test_mvee_iteration_budget(monkeypatch):
    # m = 30 with 600 points takes 53 Cholesky evaluations symmetric and 52
    # lifted (the Khachiyan loop before it took 3951 and 3610 steps); the cap
    # allows twice that
    monkeypatch.setattr(geometry, "MVEE_MAX_ITERS", 110)
    pts = unit_rows(np.random.default_rng(30), 600, 30)
    for symmetric in (True, False):
        ell = geometry.mvee(pts, symmetric=symmetric)
        assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS


def test_mvee_badly_scaled_points_give_symmetric_shape():
    # axis scales up to 10^+-3 and a shift drawn up to 50: inv(V) is
    # symmetric only up to rounding amplified by its condition number, which
    # the Ellipsoid check rejected before mvee symmetrized the shape
    rng = np.random.default_rng(379)
    m = int(rng.integers(1, 9))
    pts = rng.standard_normal((20 * (m + 1), m)) * 10.0 ** rng.uniform(-3, 3, m)
    pts += rng.uniform(0, 50) * rng.standard_normal(m)
    ell = geometry.mvee(pts)
    assert np.array_equal(ell.shape, ell.shape.T)
    assert float(np.max(ell.quad(pts))) <= 1 + geometry.MVEE_EPS


def exact_state(Q, u):
    """V^-1 and the leverages w_i = q_i' V^-1 q_i for V = Q' diag(u) Q."""
    Vinv = np.linalg.inv((Q.T * u) @ Q)
    return Vinv, np.einsum("ij,jk,ik->i", Q, Vinv, Q)


REFERENCE_MAX_STEPS = 100_000


def reference_khachiyan(Q, eps):
    """Khachiyan's coordinate ascent with Todd-Yildirim away steps, the loop
    mvee ran before the spectral projected-gradient ascent: V^-1 and the
    leverages take one rank-one update per step and are recomputed exactly
    before the loop stops."""
    n, dim = Q.shape
    u = np.full(n, 1.0 / n)
    Vinv, w = exact_state(Q, u)
    bound = (1.0 + eps) * dim
    for _ in range(REFERENCE_MAX_STEPS):
        j = int(np.argmax(w))
        if w[j] <= bound:
            Vinv, w = exact_state(Q, u)
            if np.max(w) <= bound:
                return u
            continue
        k = int(np.argmin(np.where(u > 0.0, w, np.inf)))
        if dim - w[k] > w[j] - dim:
            i = k
            floor = -u[k] / (1.0 - u[k])
            tau = floor
            if w[k] > 1.0:
                tau = max((w[k] - dim) / (dim * (w[k] - 1.0)), floor)
            drop = tau == floor
        else:
            i, drop = j, False
            tau = (w[j] - dim) / (dim * (w[j] - 1.0))
            if tau >= 1.0:
                u = np.zeros(n)
                u[j] = 1.0
                Vinv, w = exact_state(Q, u)
                continue
        g = Vinv @ Q[i]
        h = Q @ g
        c = tau / ((1.0 - tau) + tau * w[i])
        Vinv = (Vinv - c * np.outer(g, g)) / (1.0 - tau)
        w = (w - c * h * h) / (1.0 - tau)
        u *= 1.0 - tau
        u[i] += tau
        if drop:
            u[i] = 0.0
    raise geometry.GeometryError("MVEE iteration cap exceeded")


def assert_design_oracle(Q, u, expect, eps=geometry.MVEE_EPS):
    """u is a valid stop of the design ascent, judged against weights expect
    that also pass the stopping test.

    u must lie on the simplex and pass the exact test
    max_i w_i <= (1+eps) dim.  Weak duality then bounds its log det from
    both sides.  Take any positive definite M with q_i' M q_i <= 1 for every
    i, and any weights v on the simplex:
    tr(M V(v)) = sum_i v_i q_i' M q_i <= 1, and by the AM-GM inequality on
    the eigenvalues of M^1/2 V(v) M^1/2, det(M V(v))^(1/dim) <= 1 / dim, so
    log det V(v) <= -log det M - dim log dim.  Where u passes the test,
    M = V(u)^-1 / ((1+eps) dim) is such an M, and the bound reads
    log det V(v) <= log det V(u) + dim log(1+eps).  Both u and expect pass,
    so each log det lies within dim log(1+eps) of the other.
    """
    dim = Q.shape[1]
    assert float(u.min()) >= 0.0
    assert abs(float(u.sum()) - 1.0) <= 1e-12
    _, w = exact_state(Q, u)
    assert float(w.max()) <= (1.0 + eps) * dim
    gap = (np.linalg.slogdet((Q.T * u) @ Q)[1]
           - np.linalg.slogdet((Q.T * expect) @ Q)[1])
    assert abs(gap) <= dim * math.log1p(eps)


def oracle_input(m, symmetric):
    rng = np.random.default_rng(100 + m)
    P = unit_rows(rng, 20 * m, m)
    return P if symmetric else np.hstack([P + rng.standard_normal(m),
                                          np.ones((len(P), 1))])


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("m", [1, 3, 10, 30])
def test_khachiyan_matches_reference(m, symmetric):
    # the ascent's weights and the Khachiyan reference's are both valid
    # stops, and their log dets agree within the weak-duality bound
    Q = oracle_input(m, symmetric)
    expect = reference_khachiyan(Q, geometry.MVEE_EPS)
    assert_design_oracle(Q, expect, expect)
    assert_design_oracle(Q, geometry._design_weights(Q, geometry.MVEE_EPS),
                         expect)


def mutated_design_weights(Q, eps, old, new):
    """geometry._design_weights, and the simplex projection it calls, with
    the source string old replaced by new once."""
    source = "\n\n".join(inspect.getsource(f) for f in (
        geometry._simplex_projection, geometry._design_weights))
    assert source.count(old) == 1
    source = source.replace(old, new)
    scope = dict(vars(geometry))
    exec(source, scope)
    return scope["_design_weights"](Q, eps)


def mutated_khachiyan(Q, eps):
    """reference_khachiyan with the sign of tau * w_i in the Sherman-Morrison
    coefficient flipped and the exact stopping test removed: the loop stops
    on its carried leverages alone.  (Flipping the whole correction makes the
    carried leverages grow without bound, which the iteration cap catches.)"""
    source = inspect.getsource(reference_khachiyan)
    for old, new in [
            ("(1.0 - tau) + tau * w[i]", "(1.0 - tau) - tau * w[i]"),
            ("Vinv, w = exact_state(Q, u)\n"
             "            if np.max(w) <= bound:\n"
             "                return u\n"
             "            continue\n", "return u\n")]:
        assert source.count(old) == 1
        source = source.replace(old, new)
    scope = dict(globals())
    exec(source, scope)
    return scope["reference_khachiyan"](Q, eps)


def test_mutated_rank_one_sign_is_caught():
    # the exact recomputation of the leverages exposes weights the mutated
    # loop wrongly takes for converged
    rng = np.random.default_rng(5)
    for m in (3, 5, 10):
        P = unit_rows(rng, 20 * m, m)
        u = mutated_khachiyan(P, geometry.MVEE_EPS)
        _, w = exact_state(P, u)
        assert float(np.max(w)) > (1 + geometry.MVEE_EPS) * m
        ell = geometry.mvee(P, symmetric=True)
        assert float(np.max(ell.quad(P))) <= 1 + geometry.MVEE_EPS


def test_mutated_design_ascent_is_caught():
    # a projection without the simplex shift lets sum(u) grow past 1, which
    # shrinks the leverages below the bound early; a stop that reads a trial
    # point's leverages before the line search accepts it returns the weights
    # from before the step.  The oracle rejects both on each input (the
    # symmetric m = 1 case is a closed form that neither touches)
    mutations = [
        ("return np.maximum(v - theta, 0.0)", "return np.maximum(v, 0.0)"),
        ("            trial = _design(QT, u_t)\n",
         "            trial = _design(QT, u_t)\n"
         "            if trial is not None and trial[1].max() <= bound:\n"
         "                return u\n")]
    for m, symmetric in [(1, False), (3, True), (10, False), (30, True)]:
        Q = oracle_input(m, symmetric)
        expect = reference_khachiyan(Q, geometry.MVEE_EPS)
        for old, new in mutations:
            u = mutated_design_weights(Q, geometry.MVEE_EPS, old, new)
            with pytest.raises(AssertionError):
                assert_design_oracle(Q, u, expect)


def test_design_ascent_fails_fast(monkeypatch):
    # a step toward the projection of -(u + lam w) descends, and an Armijo
    # constant of 1e6 asks a concave objective to rise far more than its
    # first-order ascent: each raises within SPG_BACKTRACKS evaluations
    # instead of running to MVEE_MAX_ITERS or hanging
    Q = oracle_input(30, False)
    calls = []
    design = geometry._design
    monkeypatch.setattr(geometry, "_design",
                        lambda QT, u: calls.append(1) or design(QT, u))
    exact = geometry._simplex_projection
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_simplex_projection", lambda v: exact(-v))
        with pytest.raises(geometry.GeometryError, match="does not ascend"):
            geometry._design_weights(Q, geometry.MVEE_EPS)
    assert len(calls) == 1
    monkeypatch.setattr(geometry, "SPG_ARMIJO", 1e6)
    with pytest.raises(geometry.GeometryError, match="line search"):
        geometry._design_weights(Q, geometry.MVEE_EPS)
    assert len(calls) == 2 + geometry.SPG_BACKTRACKS


def test_convex_decompose_examples():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lam = geometry.convex_decompose(pts[0], pts)
    assert lam[0] == pytest.approx(1.0)
    seg = np.array([[1.0, 0.0], [0.0, 1.0]])
    mid = seg.mean(axis=0)
    lam = geometry.convex_decompose(mid, seg)  # unique on a segment
    assert np.allclose(lam, [0.5, 0.5], atol=1e-6)
    lam = geometry.convex_decompose(mid, pts)
    assert np.linalg.norm(lam @ pts - mid) <= 1e-9
    with pytest.raises(geometry.InfeasibleError):
        geometry.convex_decompose(np.array([3.0, 3.0]), pts)


def test_convex_decompose_caratheodory_cap():
    rng = RngStream(3, 0)
    m = 4
    pts = rng.gen.standard_normal((50, m))
    target = pts[:10].mean(axis=0)  # deep inside the hull
    lam = geometry.convex_decompose(target, pts)
    assert np.count_nonzero(lam) <= m + 1
    assert lam.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0)
    assert np.linalg.norm(lam @ pts - target) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
def test_convex_decompose_random_hulls(m, seed, data):
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 10 * m))
    spread = data.draw(st.floats(0.0, 2.0))
    P = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-spread, spread, m)
    dups = P[rng.integers(0, n, data.draw(st.integers(0, n)))]
    a, b = rng.integers(0, n, (2, data.draw(st.integers(0, n))))
    s = rng.uniform(0, 1, (len(a), 1))
    near = P[a] + s * (P[b] - P[a]) + 1e-9 * rng.standard_normal((len(a), m))
    P = np.vstack([P, dups, near])
    target = rng.dirichlet(np.full(len(P), 0.5)) @ P
    lam = geometry.convex_decompose(target, P)
    assert np.linalg.norm(lam @ P - target) <= geometry.DECOMP_TOL
    assert lam.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(lam) <= m + 1
    # push the target past the supporting hyperplane along a unit direction
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    gap = float(np.max(P @ u) - target @ u) + 1e-6 * (1.0 + np.abs(P).max())
    with pytest.raises(geometry.InfeasibleError):
        geometry.convex_decompose(target + gap * u, P)


def test_weighted_atom_measure_validation():
    with pytest.raises(geometry.GeometryError):
        WeightedAtomMeasure([(np.zeros(2), 1, 0.4)])  # mass != 1
    with pytest.raises(geometry.GeometryError):
        WeightedAtomMeasure([(np.zeros(2), 2, 1.0)])  # bad label


def test_build_noise_measure_1d():
    # m=1, psi(x) = <x, e>: measure concentrates near the extreme heights and
    # the hinge error of Lambda_w is at least ||w||_John / 2
    e = np.eye(6)[0]
    rng = RngStream(4, 0)
    probes = geometry.default_probes(6, 1, rng)
    M, mu = geometry.build_noise_measure(
        lambda x: np.array([float(x @ e)]), probes, 1, rng=rng.child(1))
    heights = np.array([float(p @ e) for p, _, _ in mu.atoms])
    extreme = max(abs(float(p @ e)) for p in probes)
    assert np.all(np.abs(np.abs(heights) - extreme) < 0.05)
    john = math.sqrt(float(M[0, 0]))
    for w in (0.3, 1.0, 2.5):
        errs = sum(
            wt * max(1.0 - y * w * float(p @ e), 0.0) for p, y, wt in mu.atoms
        )
        assert errs >= (w * john) / 2.0 - 1e-9


def noise_input(seed, m, d=8):
    rng = RngStream(seed, 0)
    A = rng.gen.standard_normal((m, d))
    return A, geometry.default_probes(d, m, rng), rng


def test_build_noise_measure_m2_certificate():
    # E_mu |<w, A x>| >= sum_i |<w, e_i>| / (m sqrt(m (1+eps))) >=
    # ||w||_{M^-1} / (m sqrt(m (1+eps))) for every w, recomputed here atom by
    # atom through A
    m = 2
    A, probes, rng = noise_input(5, m)
    M, mu = geometry.build_noise_measure(lambda x: A @ x, probes, m,
                                         rng=rng.child(1))
    total = sum(w for _, _, w in mu.atoms)
    assert total == pytest.approx(1.0, abs=1e-9)
    # each probe carries both labels, -1 first
    assert [y for _, y, _ in mu.atoms] == [-1, 1] * (len(mu.atoms) // 2)
    Minv = np.linalg.inv(M)
    basis = np.linalg.inv(np.linalg.cholesky(M)).T  # John-orthonormal e_i
    shrink = math.sqrt(m * (1 + geometry.MVEE_EPS))
    gen = rng.child(2)
    for _ in range(100):
        w = gen.gen.standard_normal(m)
        score = sum(wt * abs(float((A @ p) @ w)) for p, _, wt in mu.atoms)
        floor = float(np.sum(np.abs(w @ basis))) / (m * shrink)
        assert floor >= math.sqrt(float(w @ Minv @ w)) / (m * shrink) - 1e-12
        assert score >= floor - geometry.DECOMP_TOL * np.linalg.norm(w)


def assert_rolled_decomposition_caught(monkeypatch, m):
    # rolling each decomposition by one vertex moves every probe's mass to
    # the next probe; the mean-absolute-score certificate must notice
    A, probes, rng = noise_input(5, m)
    geometry.build_noise_measure(lambda x: A @ x, probes, m, rng=rng.child(1))
    exact = geometry.convex_decompose
    monkeypatch.setattr(geometry, "convex_decompose",
                        lambda t, P: np.roll(exact(t, P), 1))
    with pytest.raises(geometry.GeometryError, match="certificate"):
        geometry.build_noise_measure(lambda x: A @ x, probes, m,
                                     rng=rng.child(1))


def test_mutated_decomposition_is_caught(monkeypatch):
    assert_rolled_decomposition_caught(monkeypatch, 2)


def test_mutated_decomposition_is_caught_m5(monkeypatch):
    # on this input the rolled measure clears the floor
    # ||w||_{M^-1} / (m sqrt(m (1+eps))) but not the certified floor
    # sum_i |<w, e_i>| / (m sqrt(m (1+eps)))
    assert_rolled_decomposition_caught(monkeypatch, 5)


def test_build_noise_measure_span_failure():
    rng = RngStream(6, 0)
    probes = geometry.default_probes(5, 2, rng)
    with pytest.raises(geometry.RankDeficiencyError):
        geometry.build_noise_measure(lambda x: np.zeros(2), probes, 2)
