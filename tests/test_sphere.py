import math

import numpy as np
import pytest

from marginlab import sphere
from marginlab.sphere import RngStream


def test_rng_stream_reproducible():
    a = RngStream(123, 5).gen.standard_normal(10)
    b = RngStream(123, 5).gen.standard_normal(10)
    assert np.array_equal(a, b)


def test_rng_stream_independent():
    a = RngStream(123, 0).gen.standard_normal(10)
    b = RngStream(123, 1).gen.standard_normal(10)
    c = RngStream(124, 0).gen.standard_normal(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_children_distinct_and_stable():
    base = RngStream(7, 3)
    ids = {base.child(i).stream_id for i in range(100)}
    assert len(ids) == 100
    assert base.child(4).stream_id == base.child(4).stream_id
    # nested children do not trivially collide
    assert base.child(0).child(0).stream_id != base.child(1).child(0).stream_id


def test_sample_unit_sphere():
    rng = RngStream(1, 0)
    for d in (1, 2, 7):
        x = sphere.sample_unit_sphere(d, rng)
        assert x.shape == (d,)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(sphere.DomainError):
        sphere.sample_unit_sphere(0, rng)


def test_sample_band_height_and_norm():
    rng = RngStream(2, 0)
    e = sphere.sample_unit_sphere(6, rng)
    for a in (-0.99, -0.3, 0.0, 0.125, 0.8):
        x = sphere.sample_band(e, a, rng)
        assert x.shape == (6,)
        assert float(e @ x) == pytest.approx(a, abs=1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sphere.sample_band(e, 1.0, rng), e)
    assert np.allclose(sphere.sample_band(e, -1.0, rng), -e)
    # an array of heights gives one point per height
    heights = np.array([-1.0, -0.99, -0.3, 0.0, 0.125, 0.8, 1.0])
    X = sphere.sample_band(e, heights, rng)
    assert X.shape == (7, 6)
    assert np.allclose(X @ e, heights, atol=1e-12)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
    assert np.allclose(X[0], -e) and np.allclose(X[-1], e)
    with pytest.raises(sphere.DomainError):
        sphere.sample_band(e, 1.5, rng)
    with pytest.raises(sphere.DomainError):
        sphere.sample_band(e, np.array([0.2, -1.5]), rng)
    with pytest.raises(sphere.DomainError):
        sphere.sample_band(2 * e, 0.5, rng)
    # d = 1 only has the poles
    assert np.allclose(sphere.sample_band(np.ones(1), np.array([1.0, -1.0]), rng),
                       [[1.0], [-1.0]])
    with pytest.raises(sphere.DomainError):
        sphere.sample_band(np.ones(1), np.array([1.0, 0.5]), rng)


def test_sample_band_redraws_degenerate_rows():
    # a Gaussian row parallel to e has no orthogonal part: only that row is
    # drawn again
    e = np.eye(3)[0]

    class Scripted:
        def __init__(self, draws):
            self.draws = list(draws)

        def standard_normal(self, shape):
            out = self.draws.pop(0)
            assert out.shape == shape
            return out

    rng = RngStream(0, 0)
    rng._gen = Scripted([np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0]]),
                         np.array([[5.0, 0.0, -1.0]])])
    X = sphere.sample_band(e, np.array([0.0, 0.6]), rng)
    assert np.allclose(X, [[0.0, 0.0, 1.0], [0.6, 0.0, -0.8]])
    assert rng._gen.draws == []


def test_band_sampling_uniform_on_complement():
    # the orthogonal part is isotropic: mean of the complement component is 0
    rng = RngStream(3, 0)
    e = np.eye(5)[0]
    pts = sphere.sample_band(e, np.full(4000, 0.2), rng)
    comp = pts[:, 1:]
    assert np.max(np.abs(comp.mean(axis=0))) < 0.05


def test_haar_orthogonal():
    rng = RngStream(4, 0)
    for d in (2, 5, 9):
        A = sphere.haar_orthogonal(d, rng)
        assert np.allclose(A @ A.T, np.eye(d), atol=1e-12)
    # sign fix makes the distribution exactly Haar: column means vanish
    samples = np.array([sphere.haar_orthogonal(3, rng)[0, 0] for _ in range(3000)])
    assert abs(samples.mean()) < 0.05


def test_band_average_constant_and_linear():
    # band averages over points drawn at one height: exact for functions of
    # <x, e> and of the orthogonal norm, and near 0 (within 4 standard
    # errors) for an orthogonal linear function
    rng = RngStream(5, 0)
    e = np.eye(6)[0]
    X = sphere.sample_band(e, np.full(2000, 0.4), rng)
    assert np.mean(X[:, 0]) == pytest.approx(0.4, abs=1e-12)
    assert np.mean(np.sum(X[:, 1:] ** 2, axis=1)) == pytest.approx(0.84)
    vals = X[:, 1]
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals)) <= 4 * se
