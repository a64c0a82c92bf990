import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import orthopoly as op


# ---------------------------------------------------------------------------
# Recursion oracles: d=3 matches the ordinary Legendre polynomials, d=2 the
# Chebyshev cosine identity.
# ---------------------------------------------------------------------------

def test_d3_matches_classical_legendre():
    t = np.linspace(-1, 1, 57)
    table = op.legendre_table(3, 12, t)
    for n in range(13):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        ref = np.polynomial.legendre.legval(t, coeffs)
        assert np.allclose(table[n], ref, atol=1e-12)


def test_d2_matches_cosine_identity():
    t = np.linspace(-1, 1, 41)
    for n in range(20):
        ref = np.cos(n * np.arccos(t))
        assert np.allclose(op.legendre_table(2, n, t)[n], ref, atol=1e-10)
        assert np.allclose(op.chebyshev_eval("first", n, t), ref, atol=1e-10)


def test_chebyshev_second_kind_identity():
    # U_n(cos x) = sin((n+1)x)/sin(x)
    x = np.linspace(0.1, np.pi - 0.1, 31)
    t = np.cos(x)
    for n in range(1, 15):
        ref = np.sin((n + 1) * x) / np.sin(x)
        assert np.allclose(op.chebyshev_eval("second", n, t), ref, atol=1e-9)


def test_endpoint_and_degree_edge_cases():
    assert op.legendre_table(7, 0, 0.3)[0] == 1.0
    assert op.legendre_table(7, 1, np.array(0.3))[1] == pytest.approx(0.3)
    for d in (2, 3, 5, 9):
        assert op.legendre_table(d, 17, 1.0)[17] == pytest.approx(1.0, abs=1e-9)
        assert op.legendre_table(d, 17, -1.0)[17] == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(op.DomainError):
        op.legendre_table(7, 3, 1.5)
    with pytest.raises(op.DomainError):
        op.legendre_table(1, 3, 0.0)
    with pytest.raises(op.DomainError):
        op.legendre_table(5, op.MAX_DEGREE + 1, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 20),
    n=st.integers(0, 60),
    t=st.floats(-1.0, 1.0),
)
def test_sup_norm_at_most_one(d, n, t):
    assert abs(op.legendre_table(d, n, t)[n]) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Pointwise and tail bounds.
# ---------------------------------------------------------------------------

def test_pointwise_bound_spec_value():
    # product branch at d=6, n=4, t=0: sqrt((1/5)(2/6)(3/7)(4/8))
    expect = math.sqrt((1 / 5) * (2 / 6) * (3 / 7) * (4 / 8))
    assert op.legendre_bound(6, 4, 0.0) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.1195, abs=5e-5)


def test_pointwise_bound_dominates():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(5, 15))
        n = int(rng.integers(1, 50))
        t = float(rng.uniform(-0.99, 0.99))
        assert abs(op.legendre_table(d, n, t)[n]) <= op.legendre_bound(d, n, t) + 1e-9


def test_pointwise_bound_domain():
    with pytest.raises(op.DomainError):
        op.legendre_bound(4, 3, 0.1)
    with pytest.raises(op.DomainError):
        op.legendre_bound(6, 0, 0.1)
    with pytest.raises(op.DomainError):
        op.legendre_bound(6, 3, 1.0)


def test_tail_bound_value_and_domination():
    c = op.TailConstants()
    expect = c.r**10 / (1 - c.r) + 12.0 * c.s**8
    got = op.legendre_tail_bound(10, 10)
    assert got == pytest.approx(expect, rel=1e-12)
    # the explicit display evaluates near 5.54
    assert got == pytest.approx(5.5406, abs=2e-3)
    band = np.linspace(-0.125, 0.125, 41)
    for d in (5, 8, 12):
        table = np.abs(op.legendre_table(d, 150, band))
        for K in (1, 5, 20):
            tail = float(np.max(table[K:].sum(axis=0)))
            assert tail <= op.legendre_tail_bound(K, d) + 1e-9


def test_tail_bound_domain():
    with pytest.raises(op.DomainError):
        op.legendre_tail_bound(0, 10)
    with pytest.raises(op.DomainError):
        op.legendre_tail_bound(5, 4)


# ---------------------------------------------------------------------------
# Arcsine measure machinery.
# ---------------------------------------------------------------------------

def test_quadrature_matches_adaptive_integration():
    from scipy.integrate import quad

    f = lambda x: np.cos(7.0 * x) + x**3 - 0.2
    ref, _ = quad(
        lambda x: abs(f(x)) * 8.0 / (math.pi * math.sqrt(1 - (8 * x) ** 2)),
        -0.125, 0.125, points=[-0.125, 0.125], limit=200,
    )
    assert op.arcsine_norm(f, p=1) == pytest.approx(ref, rel=1e-8)


def test_arcsine_table_rows_match_chebyshev():
    # row n is sqrt(2) T_n(8x), bit for bit, from one recursion
    x = np.concatenate((op.gauss_chebyshev_nodes(64)[0],
                        np.linspace(-0.125, 0.125, 33)))
    table = op.arcsine_orthopoly_table(40, x)
    assert table.shape == (41, len(x))
    assert np.array_equal(table[0], np.ones_like(x))
    for n in range(1, 41):
        ref = math.sqrt(2) * op.chebyshev_eval("first", n, 8.0 * x)
        assert np.array_equal(table[n], ref), n
    assert op.arcsine_orthopoly_table(3, 0.1).shape == (4,)
    with pytest.raises(op.DomainError):
        op.arcsine_orthopoly_table(3, np.array([0.0, 0.13]))


def test_arcsine_orthonormality():
    x, w = op.gauss_chebyshev_nodes(128)
    table = op.arcsine_orthopoly_table(5, x)
    for i in range(6):
        for j in range(6):
            ip = float(np.sum(w * table[i] * table[j]))
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_l1_l2_inequality_random():
    # ||f||_2 <= sqrt(K) ||f||_1 max_i ||p_i||_inf for f in span{p_0..p_{K-1}}
    rng = np.random.default_rng(3)
    x, w = op.gauss_chebyshev_nodes(256)
    table = op.arcsine_orthopoly_table(23, x)
    for _ in range(500):
        K = int(rng.integers(1, 25))
        alpha = rng.standard_normal(K) * 10 ** rng.uniform(-3, 3)
        vals = alpha @ table[:K]
        l1 = float(np.sum(w * np.abs(vals)))
        l2 = float(np.sqrt(np.sum(w * vals**2)))
        pmax = 1.0 if K == 1 else math.sqrt(2.0)
        assert l2 <= math.sqrt(K) * l1 * pmax * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Band-difference estimate.
# ---------------------------------------------------------------------------

def test_linear_zonal_gap_exact():
    f = op.PolyCoeffs(8, np.array([0.0, 1.0]))
    gap, bound = op.changes_slowly_gap(f, 0.03, 5)
    assert gap == pytest.approx(2 * 0.03, rel=1e-12)
    assert gap <= bound


def test_gap_evaluates_f_once(monkeypatch):
    # f is evaluated at +/-gamma and the quadrature nodes in one table
    calls = []
    table = op.legendre_table

    def counting(d, nmax, t):
        calls.append(np.shape(t))
        return table(d, nmax, t)

    f = op.PolyCoeffs(8, np.array([0.3, -1.0, 0.5, 2.0]))
    gap_ref = abs(float(f(0.03)) - float(f(-0.03)))
    lead = 32.0 * 0.03 * 5**3.5
    bound_ref = (lead * op.arcsine_norm(f)
                 + (lead + 2.0) * 2.0 * op.legendre_tail_bound(5, 8))
    monkeypatch.setattr(op, "legendre_table", counting)
    gap, bound = op.changes_slowly_gap(f, 0.03, 5)
    assert calls == [(2 + op.DEFAULT_QUAD_NODES,)]
    assert gap == pytest.approx(gap_ref, rel=1e-12)
    assert bound == pytest.approx(bound_ref, rel=1e-12)


def test_gap_domain_errors():
    f = op.PolyCoeffs(8, np.array([1.0, 0.5]))
    with pytest.raises(op.DomainError):
        op.changes_slowly_gap(f, 0.2, 5)
    with pytest.raises(op.DomainError):
        op.changes_slowly_gap(op.PolyCoeffs(4, np.array([1.0])), 0.01, 5)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(5, 12),
    K=st.integers(1, 20),
    gamma=st.floats(1e-4, 0.124),
    seed=st.integers(0, 2**31),
)
def test_gap_bounded_random_zonal(d, K, gamma, seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 80))
    alpha = rng.standard_normal(deg + 1) * 10 ** rng.uniform(-3, 2)
    f = op.PolyCoeffs(d, alpha)
    gap, bound = op.changes_slowly_gap(f, gamma, K)
    assert gap <= bound


def test_poly_coeffs_validation():
    with pytest.raises(op.DomainError):
        op.PolyCoeffs(1, np.array([1.0]))
    with pytest.raises(op.DomainError):
        op.PolyCoeffs(5, np.array([np.nan]))
