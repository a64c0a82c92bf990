import math

import numpy as np
import pytest

from marginlab import measures
from marginlab.learners import make_loss
from marginlab.measures import AdversarialSpec
from marginlab.sphere import RngStream


def make_spec(**kw):
    base = dict(d=10, gamma=0.01, theta=0.7)
    base.update(kw)
    return AdversarialSpec(**base)


def test_spec_validation():
    with pytest.raises(measures.SpecError):
        make_spec(gamma=0.2)
    with pytest.raises(measures.SpecError):
        make_spec(theta=1.0)
    with pytest.raises(measures.SpecError):
        make_spec(lambda2=0.6, lambda3=0.5)
    with pytest.raises(measures.SpecError):
        make_spec(e=np.ones(10))  # not unit


def test_clean_weight():
    spec = make_spec(lambda2=0.05, lambda3=0.1)
    assert spec.clean_weight == pytest.approx(0.85)


def band_rows(spec, X):
    """Rows whose height is not a clean/flipped atom height."""
    return ~np.isclose(np.abs(X @ spec.e), spec.gamma, rtol=0, atol=1e-12)


def test_sample_arcsine_distribution():
    spec = make_spec(lambda3=0.9)
    X, _ = measures.sample_dataset(spec, 20000, RngStream(0, 0))
    ts = (X @ spec.e)[band_rows(spec, X)]
    assert np.all(np.abs(ts) <= 0.125 + 1e-12)
    # CDF of the arcsine law: F(t) = 1/2 + arcsin(8t)/pi
    for q in (-0.1, -0.05, 0.0, 0.06):
        expect = 0.5 + math.asin(8 * q) / math.pi
        assert np.mean(ts <= q) == pytest.approx(expect, abs=0.02)


def test_sampled_points_on_sphere_with_correct_heights():
    spec = make_spec(lambda3=0.3)
    X, y = measures.sample_dataset(spec, 500, RngStream(1, 0))
    assert X.shape == (500, 10) and y.shape == (500,)
    assert set(np.unique(y)) == {-1.0, 1.0}
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-9)
    heights = X @ spec.e
    assert np.all(np.abs(heights) <= 0.125 + 1e-12)
    rounded = set(np.round(heights, 6))
    assert 0.01 in rounded and -0.01 in rounded  # clean atoms present
    # the same stream replays the same draws
    X2, y2 = measures.sample_dataset(spec, 500, RngStream(1, 0))
    assert np.array_equal(X, X2) and np.array_equal(y, y2)


def test_clean_component_frequencies():
    spec = make_spec(theta=0.8)
    X, y = measures.sample_dataset(spec, 5000, RngStream(2, 0))
    assert np.mean(y == 1) == pytest.approx(0.8, abs=0.02)
    assert np.allclose((X @ spec.e) * y, 0.01, atol=1e-12)


def test_component_shares():
    spec = make_spec(lambda2=0.1, lambda3=0.2)
    n = 20000
    X, y = measures.sample_dataset(spec, n, RngStream(4, 0))
    t = X @ spec.e
    flipped = np.isclose(t, -spec.gamma, rtol=0, atol=1e-12) & (y == 1)
    clean = np.isclose(t * y, spec.gamma, rtol=0, atol=1e-12)
    band = band_rows(spec, X)
    assert np.all(flipped | clean | band)
    tol = 4 * math.sqrt(0.25 / n)
    assert np.mean(clean) == pytest.approx(spec.clean_weight, abs=tol)
    assert np.mean(flipped) == pytest.approx(0.1, abs=tol)
    assert np.mean(band) == pytest.approx(0.2, abs=tol)
    # band labels are fair coins
    assert np.mean(y[band] == 1) == pytest.approx(0.5, abs=0.03)


def test_certified_margin_bound_values():
    # clean only: reference halfspace has zero strict margin error
    assert measures.certified_margin_bound(make_spec()) == 0.0
    # flipped atom contributes its full weight
    spec = make_spec(lambda2=0.05)
    assert measures.certified_margin_bound(spec) == pytest.approx(0.05)
    # band noise contributes lambda3 (1/2 + arcsin(8 gamma)/pi)
    spec = make_spec(lambda3=0.02)
    expect = 0.02 * (0.5 + math.asin(0.08) / math.pi)
    assert measures.certified_margin_bound(spec) == pytest.approx(expect, rel=1e-12)


def test_certified_margin_bound_monte_carlo_agreement():
    # empirical margin error of the reference halfspace matches the bound
    spec = make_spec(lambda2=0.03, lambda3=0.1)
    rng = RngStream(3, 0)
    X, y = measures.sample_dataset(spec, 40000, rng)
    emp = float(np.mean(y * (X @ spec.e) < spec.gamma))
    assert emp == pytest.approx(measures.certified_margin_bound(spec), abs=0.005)


def test_boundary_counts_adds_clean_mass():
    spec = make_spec(boundary_counts=True)
    with pytest.warns(UserWarning):
        bound = measures.certified_margin_bound(spec)
    assert bound == pytest.approx(1.0)


def test_choose_theta_spec_example_triple():
    # the documented hinge triple satisfies the theta inequality
    loss = make_loss("hinge")
    alpha, beta, theta = 0.5, 1.0, 0.9
    lhs = (1 - theta) * loss.value(-beta) + theta * loss.value(beta)
    assert lhs < theta * loss.value(alpha)

