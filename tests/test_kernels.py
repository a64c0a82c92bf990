import math

import numpy as np
import pytest

from marginlab import kernels, sphere
from marginlab.orthopoly import PolyCoeffs, legendre_eval
from marginlab.sphere import RngStream


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
    # 1/(1 - s/2) normalized by its value 2 at s=1
    assert sss.profile_value(1.0) == pytest.approx(1.0)
    assert sss.profile_value(0.0) == pytest.approx(0.5)
    rbf = kernels.standard_kernel("rbf", sigma=2.0)
    assert rbf.profile_value(1.0) == pytest.approx(1.0)
    assert rbf.profile_value(-1.0) == pytest.approx(math.exp(-0.5))
    poly = kernels.standard_kernel("poly", degree=3)
    assert poly.profile_value(0.0) == pytest.approx(0.125)
    with pytest.raises(kernels.KernelError):
        kernels.standard_kernel("nope")


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
            assert np.linalg.eigvalsh(G)[0] >= -1e-8 * len(X)


def test_blocked_gram_matches_unblocked_product():
    # n is not a multiple of the row block, so the last strip is partial
    X = sphere_points(7, kernels.ROW_BLOCK + 37)
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
        assert np.array_equal(G, 0.5 * (P + P.T))
        assert np.array_equal(G, G.T)
        assert np.array_equal(kernels.cross_gram(k, X, Y),
                              k.profile_value(X @ Y.T))
    series = kernels.KernelSpec(name="series",
                                legendre=(7, np.array([0.4, 0.3, 0.2, 0.1])))
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
        assert np.allclose(G, 0.5 * (P + P.T), rtol=0.0, atol=1e-14)
        assert np.array_equal(G, G.T)
        assert np.allclose(kernels.cross_gram(k, X, Y), unblocked[k.name](X, Y),
                           rtol=0.0, atol=1e-14)


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

def test_linear_profile_decomposition():
    b = kernels.profile_to_legendre(lambda s: np.asarray(s, float), 7, nmax=10)
    expect = np.zeros(11)
    expect[1] = 1.0
    assert np.allclose(b, expect, atol=1e-10)


def test_decomposition_reconstructs_profile():
    k = kernels.standard_kernel("rbf", sigma=1.0)
    d = 8
    b = kernels.profile_to_legendre(k.profile_value, d, nmax=40)
    s = np.linspace(-1, 1, 21)
    recon = sum(bn * legendre_eval(d, n, s) for n, bn in enumerate(b))
    assert np.allclose(recon, k.profile_value(s), atol=1e-8)


def test_profile_coefficients_nonnegative_and_sum():
    for name, kw in [("sss", {}), ("rbf", {"sigma": 1.0}),
                     ("poly", {"degree": 3})]:
        k = kernels.standard_kernel(name, **kw)
        for d in (6, 10):
            prof = kernels.RkhsProfile.from_kernel(k, d, nmax=40)
            assert float(np.min(prof.b)) >= -1e-8
            assert float(np.sum(prof.b)) == pytest.approx(
                k.profile_value(1.0), abs=1e-6)


def test_tail_nonconvergence_error():
    # a kink converges only polynomially: the tail check must trip
    with pytest.raises(kernels.KernelError):
        kernels.profile_to_legendre(lambda s: np.abs(s), 5, nmax=24)


def test_rkhs_norm_and_reproducing_identity():
    k = kernels.standard_kernel("sss")
    for d in (6, 10):
        prof = kernels.RkhsProfile.from_kernel(k, d, nmax=48)
        # ||k(., x0)||^2 = sum b_n = kappa(1) = 1
        nrm = kernels.rkhs_norm_symmetric(prof.b, prof)
        assert nrm == pytest.approx(1.0, abs=1e-6)


def test_rkhs_norm_infinite_outside_index_set():
    b = np.zeros(5)
    b[0], b[2] = 0.5, 0.5
    prof = kernels.RkhsProfile(6, b)
    alpha = np.zeros(5)
    alpha[1] = 1.0
    with pytest.raises(kernels.InfiniteNormError):
        kernels.rkhs_norm_symmetric(alpha, prof)
    alpha = np.array([0.3, 0.0, 0.4])
    expect = math.sqrt(0.09 / 0.5 + 0.16 / 0.5)
    assert kernels.rkhs_norm_symmetric(alpha, prof) == pytest.approx(expect)
    assert kernels.rkhs_norm_symmetric(
        PolyCoeffs(6, alpha), prof) == pytest.approx(expect)


def test_addition_constant_identity():
    # sum_n N_{d,n}/|S^{d-1}| a_n^{-2} = sum_n b_n for a normalized kernel
    k = kernels.standard_kernel("sss")
    d = 7
    prof = kernels.RkhsProfile.from_kernel(k, d, nmax=40)
    total = sum(
        sphere.harmonic_dim(d, int(n)) / sphere.sphere_area(d) / prof.a_sq(int(n))
        for n in prof.index_set
    )
    assert total == pytest.approx(float(np.sum(prof.b)), rel=1e-9)
    with pytest.raises(kernels.InfiniteNormError):
        prof.a_sq(63)


def test_profile_json_roundtrip():
    prof = kernels.RkhsProfile(5, np.array([0.5, 0.25, 0.25]))
    prof2 = kernels.RkhsProfile.from_json(prof.to_json())
    assert prof2.d == 5
    assert np.allclose(prof2.b, prof.b)


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
