import math

import numpy as np
import pytest

from marginlab import measures, sphere
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


def test_batched_unit_sphere_draws_equal_single_draws():
    for d, k in ((1, 5), (3, 40), (10, 200), (25, 7), (4, 0)):
        batched, single = RngStream(11, d), RngStream(11, d)
        X = sphere.sample_unit_spheres(d, k, batched)
        Y = np.array([sphere.sample_unit_sphere(d, single)
                      for _ in range(k)]).reshape(k, d)
        assert X.shape == (k, d) and X.tobytes() == Y.tobytes()
        # and both generators are left in the same state
        assert batched.gen.standard_normal() == single.gen.standard_normal()


def test_batched_unit_sphere_draws_fall_back_on_a_rejected_row():
    # a zero row is redrawn by sample_unit_sphere, which shifts the later
    # rows: the batch puts the generator back and draws one at a time
    class Scripted:
        def __init__(self, values):
            self.values, self.bit_generator, self.state = values, self, 0

        def standard_normal(self, shape):
            n = int(np.prod(shape))
            out = self.values[self.state:self.state + n]
            self.state += n
            return np.array(out, dtype=float).reshape(shape)

    rng = RngStream(0, 0)
    rng._gen = Scripted([3.0, 4.0, 0.0, 0.0, 0.0, -2.0, 6.0, 8.0])
    X = sphere.sample_unit_spheres(2, 3, rng)
    assert np.array_equal(X, [[0.6, 0.8], [0.0, -1.0], [0.6, 0.8]])
    assert rng._gen.state == 8


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


def reference_sample_band(e, a, rng):
    """sphere.sample_band as it was before it worked in place: the plain
    formula, with a fresh array for each operation."""
    e = np.asarray(e, dtype=float)
    a = np.asarray(a, dtype=float)
    heights = np.clip(np.atleast_1d(a), -1.0, 1.0)
    todo = np.flatnonzero(np.abs(heights) < 1.0)
    z = np.zeros((len(heights), len(e)))
    while len(todo):
        g = rng.gen.standard_normal((len(todo), len(e)))
        g -= np.outer(g @ e, e)
        norm = np.linalg.norm(g, axis=1)
        ok = norm > 1e-12
        z[todo[ok]] = g[ok] / norm[ok, None]
        todo = todo[~ok]
    x = heights[:, None] * e + np.sqrt(1.0 - heights * heights)[:, None] * z
    return x[0] if a.ndim == 0 else x


def test_in_place_band_sampling_keeps_the_plain_formulas_bits():
    # every size up to a few chunks of outer products and past them, one
    # point, a scalar height and the poles, on an axis and off it
    for seed in range(3):
        for d in (2, 3, 25, 40, 700):
            axis = np.eye(d)[seed % d]
            tilted = sphere.sample_unit_sphere(d, RngStream(seed, 1))
            chunk = sphere.ROW_CHUNK // d
            for e in (axis, tilted):
                for n in (1, 2, 7, chunk, chunk + 1, 3 * chunk + 5, 1000):
                    a = np.random.default_rng(n).uniform(-1.0, 1.0, n)
                    if n > 2:
                        a[:2] = (1.0, -1.0)
                    for heights in (a, a[:1], np.full(n, 0.125)):
                        got = sphere.sample_band(e, heights,
                                                 RngStream(seed, n))
                        want = reference_sample_band(e, heights,
                                                     RngStream(seed, n))
                        assert got.tobytes() == want.tobytes(), (seed, d, n)
                for a in (0.3, -1.0, 1.0, 0.0):
                    got = sphere.sample_band(e, a, RngStream(seed, 2))
                    want = reference_sample_band(e, a, RngStream(seed, 2))
                    assert got.shape == want.shape == (d,)
                    assert got.tobytes() == want.tobytes()


def test_in_place_band_sampling_redraws_with_the_plain_formulas_bits():
    # a generator whose first n rows hold rows parallel to e: those rows
    # alone are drawn again, from the generator's own later draws, and the
    # points keep the plain formula's bits, however the first n rows are
    # split between calls
    class Degenerate:
        def __init__(self, seed, e, rows):
            self.gen, self.e, self.rows = RngStream(seed, 0).gen, e, rows
            self.drawn = 0

        def standard_normal(self, shape):
            out = self.gen.standard_normal(shape)
            for i in self.rows:
                if 0 <= i - self.drawn < len(out):
                    out[i - self.drawn] = 3.0 * self.e
            self.drawn += len(out)
            return out

    for d, e in ((2, np.eye(2)[1]), (25, np.eye(25)[0]),
                 (25, sphere.sample_unit_sphere(25, RngStream(9, 0)))):
        for n, rows in ((1, [0]), (40, [0, 17]), (5000, [400, 4999])):
            a = np.random.default_rng(d).uniform(-0.5, 0.5, n)
            points = []
            for sample in (sphere.sample_band, reference_sample_band):
                rng = RngStream(0, 0)
                rng._gen = Degenerate(n, e, rows)
                points.append(sample(e, a, rng))
                assert rng._gen.drawn == n + len(rows)
            assert points[0].tobytes() == points[1].tobytes(), (d, n)
            assert np.allclose(points[0] @ e, a, atol=1e-12)


def plain_sample_band(e, a, rng, out):
    """measures.sample_dataset's call of sample_band as it was: the plain
    formula, copied into out."""
    out[...] = reference_sample_band(e, a, rng)
    return out


def test_sample_dataset_keeps_the_plain_band_formulas_bits(monkeypatch):
    # the mixture's points, with the plain formula in sample_band's place
    spec = measures.AdversarialSpec(d=25, gamma=0.01, theta=0.7,
                                    lambda2=0.05, lambda3=0.3)
    for seed in range(5):
        for n in (1, 7, 400, 4000, 5000):
            got = measures.sample_dataset(spec, n, RngStream(seed, 1))
            with monkeypatch.context() as patch:
                patch.setattr(measures, "sample_band", plain_sample_band)
                want = measures.sample_dataset(spec, n, RngStream(seed, 1))
            assert got[0].tobytes() == want[0].tobytes(), (seed, n)
            assert got[1].tobytes() == want[1].tobytes(), (seed, n)


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
