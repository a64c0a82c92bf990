import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_gegenbauer

from marginlab import harness, kernels, learners, orthopoly, sphere
from marginlab.orthopoly import PolyCoeffs, legendre_table
from marginlab.sphere import RngStream

SHIPPED = [("linear", {}), ("sss", {}), ("rbf", {"sigma": 1.0}),
           ("rbf", {"sigma": 0.5}), ("rbf", {"sigma": 2.0}),
           ("poly", {"degree": 3})]
GRID = np.linspace(-1.0, 1.0, 401)


def sphere_points(d, n, seed=0):
    rng = RngStream(seed, 0)
    return np.array([sphere.sample_unit_sphere(d, rng) for _ in range(n)])


def test_kernel_spec_exactly_one_form():
    with pytest.raises(kernels.KernelError):
        kernels.KernelSpec(profile=lambda s: s, feature_map=lambda X: X)
    with pytest.raises(kernels.KernelError):
        kernels.KernelSpec()


def test_shipped_kernel_values():
    assert kernels.standard_kernel("linear").profile_value(0.3) == pytest.approx(0.3)
    sss = kernels.standard_kernel("sss")
    # 1/(2 - s), the profile 1/(1 - s/2) over its value 2 at s=1
    assert sss.profile_value(1.0) == pytest.approx(1.0)
    assert sss.profile_value(0.0) == pytest.approx(0.5)
    rbf = kernels.standard_kernel("rbf", sigma=2.0)
    assert rbf.profile_value(1.0) == pytest.approx(1.0)
    assert rbf.profile_value(-1.0) == pytest.approx(math.exp(-0.5))
    poly = kernels.standard_kernel("poly", degree=3)
    assert poly.profile_value(0.0) == pytest.approx(0.125)
    with pytest.raises(kernels.KernelError):
        kernels.standard_kernel("nope")


def test_sss_profile_matches_normalized_form():
    # 1/(2 - s) is bitwise (1/(1 - s/2)) / 2: scaling by 2 commutes with
    # rounding, so sss Gram matrices keep their bytes
    s = np.linspace(-1.0, 1.0, 4001)
    sss = kernels.standard_kernel("sss")
    assert np.array_equal(sss.profile_value(s), (1.0 / (1.0 - 0.5 * s)) / 2.0)


def test_taylor_coefficients_sum_to_profile():
    for name, params in SHIPPED:
        k = kernels.standard_kernel(name, **params)
        assert np.all(k.taylor >= 0.0)
        series = np.polynomial.polynomial.polyval(GRID, k.taylor)
        assert np.allclose(series, k.profile_value(GRID), rtol=0.0, atol=1e-14)


def test_gram_psd_shipped_kernels():
    shipped = [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
    ]
    for seed in range(10):
        X = sphere_points(7, 15, seed)
        for k in shipped:
            G = kernels.gram(k, X)
            assert kernels.min_eigenvalue(G) >= -1e-8 * len(X)


def test_blocked_gram_matches_unblocked_product():
    # the lower triangle at this n spans three profile blocks, the last one
    # partial; kernels.gram defines the lower triangle only
    X = sphere_points(7, math.isqrt(3 * kernels.PROFILE_BLOCK) + 37)
    assert len(list(kernels._lower_blocks(len(X)))) == 3
    Y = sphere_points(7, 50, 1)
    shipped = [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
    ]
    for k in shipped:
        P = k.profile_value(X @ X.T)
        G = kernels.gram(k, X, check_psd=False)
        assert np.array_equal(np.tril(G), np.tril(P))
        K = kernels.cross_gram(k, X, X)
        assert np.array_equal(K, K.T)
        assert np.array_equal(kernels.cross_gram(k, X, Y),
                              k.profile_value(X @ Y.T))
    series = kernels.KernelSpec(
        name="series", profile=PolyCoeffs(7, np.array([0.4, 0.3, 0.2, 0.1])))
    A = np.random.default_rng(3).standard_normal((12, 7))
    feat = kernels.KernelSpec(
        name="feat", feature_map=lambda Z: np.tanh(np.atleast_2d(Z) @ A.T))
    unblocked = {
        "series": lambda U, V: series.profile_value(U @ V.T),
        "feat": lambda U, V: feat.feature_map(U) @ feat.feature_map(V).T,
    }
    for k in (series, feat):
        P = unblocked[k.name](X, X)
        G = kernels.gram(k, X, check_psd=False)
        assert np.allclose(np.tril(G), np.tril(P), rtol=0.0, atol=1e-14)
        K = kernels.cross_gram(k, X, X)
        assert np.allclose(K, K.T, rtol=0.0, atol=1e-14)
        assert np.allclose(kernels.cross_gram(k, X, Y), unblocked[k.name](X, Y),
                           rtol=0.0, atol=1e-14)


def product_error(k, X, u):
    """||gram_product(gram(k, X), u) - cross_gram(k, X, X) u|| over the
    scale ||K|| ||u|| (Frobenius norm, an upper bound on the spectral one)."""
    K = kernels.cross_gram(k, X, X)
    got = kernels.gram_product(kernels.gram(k, X, check_psd=False), u)
    return float(np.linalg.norm(got - K @ u)
                 / (np.linalg.norm(K) * np.linalg.norm(u)))


def product_kernels():
    A = np.random.default_rng(7).standard_normal((9, 6))
    return [
        kernels.standard_kernel("linear"),
        kernels.standard_kernel("sss"),
        kernels.standard_kernel("rbf", sigma=1.0),
        kernels.standard_kernel("poly", degree=3),
        kernels.KernelSpec(
            name="series",
            profile=PolyCoeffs(6, np.array([0.3, 0.4, 0.2, 0.1]))),
        kernels.KernelSpec(
            name="feat",
            feature_map=lambda Z: np.tanh(np.atleast_2d(Z) @ A.T)),
    ]


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 1100), st.integers(0, 2**32 - 1))
def test_gram_product_matches_full_kernel_matrix(n, seed):
    # n = 1100 puts the lower triangle in four profile blocks, n <= 512 in one
    X = sphere_points(6, n, seed % 1000)
    u = np.random.default_rng(seed).standard_normal(n)
    for k in product_kernels():
        assert product_error(k, X, u) <= 1e-12, k.name


def test_mutated_upper_triangle_read_is_caught(monkeypatch):
    # a product that reads the undefined strict upper triangle
    dsymv = kernels.dsymv

    def upper_dsymv(alpha, a, x, lower=1):
        return dsymv(alpha, a, x, lower=0)

    monkeypatch.setattr(kernels, "dsymv", upper_dsymv)
    X = sphere_points(6, 300, 4)
    u = np.random.default_rng(4).standard_normal(300)
    for k in product_kernels():
        assert product_error(k, X, u) > 1e-3, k.name


def test_mutated_dropped_last_block_is_caught(monkeypatch):
    # a block loop that leaves the last partial block as raw inner products;
    # the linear profile is the identity there, so only the others can fail
    blocks = kernels._lower_blocks
    monkeypatch.setattr(kernels, "_lower_blocks",
                        lambda n: list(blocks(n))[:-1])
    X = sphere_points(6, 1100, 5)
    u = np.random.default_rng(5).standard_normal(1100)
    for k in product_kernels():
        if k.is_zonal and k.name != "linear":
            assert product_error(k, X, u) > 1e-6, k.name


def test_kernel_matrices_leave_inputs_unchanged():
    X = sphere_points(6, 700, 6)
    X[0] *= 1.0 + 1e-12  # one inner product just past 1, which the clip fixes
    Y = sphere_points(6, 40, 7)
    s = np.linspace(-1.5, 1.5, 301)
    X0, Y0, s0 = X.copy(), Y.copy(), s.copy()
    for k in product_kernels():
        if k.is_zonal:
            k.profile_value(s)
        kernels.cross_gram(k, X, Y)
        kernels.gram(k, X, check_psd=False)
        assert np.array_equal(X, X0) and np.array_equal(Y, Y0), k.name
        assert np.array_equal(s, s0), k.name


@pytest.mark.parametrize("name, params, closed", [
    ("linear", {}, lambda s: s),
    ("sss", {}, lambda s: 1.0 / (2.0 - s)),
    ("rbf", {"sigma": 1.0}, lambda s: np.exp((s - 1.0) / 1.0**2)),
    ("rbf", {"sigma": 0.3}, lambda s: np.exp((s - 1.0) / 0.3**2)),
    ("poly", {"degree": 2}, lambda s: ((1.0 + s) / 2.0) ** 2),
    ("poly", {"degree": 3}, lambda s: ((1.0 + s) / 2.0) ** 3),
    ("poly", {"degree": 5}, lambda s: ((1.0 + s) / 2.0) ** 5),
])
def test_in_place_profiles_match_closed_forms(name, params, closed):
    # the grid reaches just past [-1, 1], where the clip brings s back
    tiny = np.finfo(float).eps
    s = np.concatenate([[-1.0 - 1e-9, -1.0 - tiny, 1.0 + tiny, 1.0 + 1e-9],
                        np.linspace(-1.0, 1.0, 4001)])
    expected = closed(np.clip(s, -1.0, 1.0))
    k = kernels.standard_kernel(name, **params)
    assert np.array_equal(k.profile_value(s), expected)
    t = np.clip(s, -1.0, 1.0)
    assert k.profile(t) is t  # written in place
    assert np.array_equal(t, expected)
    K = kernels.cross_gram(k, s[:, None], np.ones((1, 1)))
    assert np.array_equal(K[:, 0], expected)


def test_decision_function_matches_one_cross_gram():
    # n_test is not a multiple of the test-point block, so the last is partial
    X = sphere_points(7, 2 * learners.TEST_BLOCK + 37, 2)
    support = sphere_points(7, 600, 3)
    alpha = np.random.default_rng(4).standard_normal(len(support))
    for name, params in SHIPPED:
        k = kernels.standard_kernel(name, **params)
        model = learners.KernelModel(support=support, alpha=alpha, b=0.25,
                                     C=1.0, kernel=k,
                                     loss=learners.make_loss("hinge"))
        assert np.array_equal(model.decision_function(X),
                              kernels.cross_gram(k, X, support) @ alpha + 0.25)


def test_gram_rejects_non_kernel():
    bad = kernels.KernelSpec(name="bad", profile=lambda s: -np.abs(s) - 1.0)
    X = sphere_points(5, 10)
    with pytest.raises(kernels.KernelError):
        kernels.gram(bad, X)


def test_cross_gram_matches_pointwise():
    k = kernels.standard_kernel("rbf", sigma=1.5)
    X, Y = sphere_points(6, 4, 1), sphere_points(6, 3, 2)
    M = kernels.cross_gram(k, X, Y)
    for i in range(4):
        for j in range(3):
            assert M[i, j] == pytest.approx(float(k.profile_value(X[i] @ Y[j])))


def test_feature_map_kernel():
    A = np.arange(12.0).reshape(3, 4) / 10.0
    k = kernels.KernelSpec(name="feat", feature_map=lambda X: np.atleast_2d(X) @ A.T)
    x, y = np.ones(4), np.arange(4.0)
    M = kernels.cross_gram(k, x[None, :], y[None, :])
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(float((A @ x) @ (A @ y)))
    assert not k.is_zonal


# ---------------------------------------------------------------------------
# Legendre decomposition.
# ---------------------------------------------------------------------------

def reproduction_error(k, b, d):
    return float(np.max(np.abs(PolyCoeffs(d, b)(GRID) - k.profile_value(GRID))))


def test_linear_profile_decomposition():
    b = kernels.RkhsProfile.from_kernel(kernels.standard_kernel("linear"), 7).b
    assert np.array_equal(b, [0.0, 1.0])


def test_decomposition_reconstructs_profile():
    # independent oracle: b_n = <kappa, P_{d,n}> / <P_{d,n}, P_{d,n}> under
    # the weight (1 - s^2)^((d-3)/2), by Gauss-Gegenbauer quadrature, which
    # is accurate at this small d
    k = kernels.standard_kernel("rbf", sigma=1.0)
    d = 8
    b = kernels.RkhsProfile.from_kernel(k, d).b
    nodes, weights = roots_gegenbauer(256, (d - 2) / 2.0)
    table = legendre_table(d, len(b) - 1, nodes)
    quad = (table @ (weights * k.profile_value(nodes))) / ((table**2) @ weights)
    assert np.allclose(b, quad, rtol=0.0, atol=1e-10)


def test_profile_coefficients_nonnegative_and_sum():
    # exact at every d, including the headline d=25
    for name, params in SHIPPED:
        k = kernels.standard_kernel(name, **params)
        k1 = float(k.profile_value(1.0))
        for d in (3, 6, 10, 25, 50):
            b = kernels.RkhsProfile.from_kernel(k, d).b
            assert np.all(b >= 0.0), (name, params, d)
            assert abs(float(np.sum(b)) - k1) <= 1e-14, (name, params, d)
            assert reproduction_error(k, b, d) <= 1e-13, (name, params, d)


def test_narrow_rbf_expansion_within_max_degree():
    # rbf sigma = 0.02 needs 2918 Taylor terms, inside MAX_DEGREE = 4096;
    # the reproduction error peaks at about 1.6e-12 there
    for sigma in (0.05, 0.03, 0.02):
        k = kernels.standard_kernel("rbf", sigma=sigma)
        assert len(k.taylor) <= orthopoly.MAX_DEGREE + 1
        b = kernels.RkhsProfile.from_kernel(k, 25).b
        assert reproduction_error(k, b, 25) <= 2e-12, sigma


def test_mutated_expansion_sign_is_caught():
    # flipping the sign of the m P_{d,m-1} term of s P_{d,m} must break the
    # reproduction check of the kernels suite
    def flipped(c, d):
        m = np.arange(len(c))
        up = (m + d - 2) / (2 * m + d - 2)
        down = m / (2 * m + d - 2)
        b = np.zeros(len(c))
        for ck in c[::-1]:
            sb = np.zeros(len(c))
            sb[1:] = up[:-1] * b[:-1]
            sb[:-1] -= down[1:] * b[1:]
            sb[0] += ck
            b = sb
        return b

    for name, params in SHIPPED[1:]:
        k = kernels.standard_kernel(name, **params)
        for d in (6, 10, 25):
            exact = kernels.RkhsProfile.from_kernel(k, d).b
            assert reproduction_error(k, exact, d) <= harness.REPRODUCTION_TOL
            mutant = flipped(k.taylor, d)
            assert reproduction_error(k, mutant, d) > harness.REPRODUCTION_TOL


def test_from_kernel_needs_taylor_coefficients():
    feat = kernels.KernelSpec(name="feat",
                              feature_map=lambda X: np.atleast_2d(X)[:, :2])
    tabulated = kernels.symmetrize_mc(kernels.standard_kernel("rbf"), 6, 16,
                                      RngStream(0, 0))
    for k in (feat, tabulated):
        with pytest.raises(kernels.KernelError):
            kernels.RkhsProfile.from_kernel(k, 6)


def test_rkhs_norm_and_reproducing_identity():
    k = kernels.standard_kernel("sss")
    for d in (6, 10, 25):
        prof = kernels.RkhsProfile.from_kernel(k, d)
        # ||k(., x0)||^2 = sum b_n = kappa(1) = 1
        nrm = kernels.rkhs_norm_symmetric(prof.b, prof)
        assert nrm == pytest.approx(1.0, abs=1e-12)


def test_rkhs_norm_infinite_outside_index_set():
    b = np.zeros(5)
    b[0], b[2] = 0.5, 0.5
    prof = kernels.RkhsProfile(6, b)
    alpha = np.zeros(5)
    alpha[1] = 1.0
    with pytest.raises(kernels.InfiniteNormError):
        kernels.rkhs_norm_symmetric(alpha, prof)
    with pytest.raises(kernels.InfiniteNormError):
        kernels.rkhs_norm_symmetric(np.append(b, 1e-3), prof)
    alpha = np.array([0.3, 0.0, 0.4])
    expect = math.sqrt(0.09 / 0.5 + 0.16 / 0.5)
    assert kernels.rkhs_norm_symmetric(alpha, prof) == pytest.approx(expect)
    assert kernels.rkhs_norm_symmetric(
        PolyCoeffs(6, alpha), prof) == pytest.approx(expect)
    with pytest.raises(kernels.KernelError):
        kernels.RkhsProfile(6, [0.5, -1e-300])


# ---------------------------------------------------------------------------
# Symmetrization and serialization.
# ---------------------------------------------------------------------------

def test_symmetrize_zonal_kernel_is_fixed_point():
    k = kernels.standard_kernel("rbf", sigma=1.0)
    ks = kernels.symmetrize_mc(k, 6, 64, RngStream(9, 0))
    s = ks.params["grid"]  # exact at tabulation nodes, interpolated between
    assert np.allclose(ks.profile_value(s), k.profile_value(s), atol=1e-9)
    assert np.max(ks.profile_std_err(s)) <= 1e-7  # rotation rounding only
    mid = np.linspace(-1, 1, 11)
    assert np.allclose(ks.profile_value(mid), k.profile_value(mid), atol=1e-3)


def test_symmetrize_rank_one_kernel():
    d = 6
    k1 = kernels.KernelSpec(name="rank1",
                            feature_map=lambda X: np.atleast_2d(X)[:, :1])
    ks = kernels.symmetrize_mc(k1, d, 4096, RngStream(10, 0))
    s = np.linspace(-1, 1, 9)
    err = np.abs(ks.profile_value(s) - s / d)
    assert np.all(err <= 3 * ks.profile_std_err(s) + 1e-3)


def test_symmetrize_rotation_count_floor():
    k = kernels.standard_kernel("linear")
    with pytest.raises(kernels.KernelError):
        kernels.symmetrize_mc(k, 5, 8, RngStream(0, 0))
