"""Geometry and sampling on the unit sphere S^{d-1}.

Uniform and band sampling and Haar-random rotations.  All randomness flows
through RngStream so runs are reproducible and parallel fan-out is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9

_CHILD_MULT = 0x9E3779B97F4A7C15  # 64-bit golden-ratio mixer
_MASK64 = (1 << 64) - 1


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass
class RngStream:
    """Counter-based reproducible random stream.

    Identical (seed, stream_id) pairs replay the identical draw sequence;
    distinct stream_ids are statistically independent.  A single stream must
    not be shared across concurrent consumers -- spawn children instead.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.default_rng(ss)
        return self._gen

    def child(self, index: int) -> "RngStream":
        mixed = ((self.stream_id * _CHILD_MULT) + index + 1) & _MASK64
        return RngStream(self.seed, mixed)


def sample_unit_sphere(d: int, rng: RngStream) -> np.ndarray:
    """Uniform draw from S^{d-1} (normalized Gaussian)."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    while True:
        g = rng.gen.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def sample_unit_spheres(d: int, k: int, rng: RngStream) -> np.ndarray:
    """k uniform draws from S^{d-1} as a (k, d) array, equal bit for bit to
    k calls of sample_unit_sphere.

    One standard_normal((k, d)) gives the normals of k draws of d, and each
    row's squared norm is the same BLAS dot that np.linalg.norm takes of a
    vector.  A row of norm <= 1e-12 would have been redrawn by
    sample_unit_sphere, which shifts every later draw, so then the generator
    is put back where it was and the k draws are made one at a time.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    gen = rng.gen
    state = gen.bit_generator.state
    g = gen.standard_normal((k, d))
    norms = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
    if np.all(norms > 1e-12):
        return g / norms[:, None]
    gen.bit_generator.state = state
    draws = [sample_unit_sphere(d, rng) for _ in range(k)]
    return np.array(draws).reshape(k, d)


def sample_band(e: np.ndarray, a, rng: RngStream) -> np.ndarray:
    """Points x on S^{d-1} with <x, e> = a, uniform on the codimension-1 sphere.

    Constructs x = a e + sqrt(1 - a^2) z with z uniform on the unit sphere of
    the orthogonal complement of e.  A scalar height gives one point of shape
    (d,); an array of n heights gives n points of shape (n, d), drawn in one
    pass.
    """
    e = np.asarray(e, dtype=float)
    d = len(e)
    if abs(np.linalg.norm(e) - 1.0) > NORM_TOL:
        raise DomainError("direction must be a unit vector")
    a = np.asarray(a, dtype=float)
    if np.any(np.abs(a) > 1.0 + 1e-12):
        raise DomainError("band height must be in [-1, 1]")
    heights = np.clip(np.atleast_1d(a), -1.0, 1.0)
    todo = np.flatnonzero(np.abs(heights) < 1.0)
    if d < 2 and len(todo):
        raise DomainError("band sampling needs d >= 2 when |a| < 1")
    z = np.zeros((len(heights), d))
    while len(todo):  # redraw the rows whose orthogonal part is degenerate
        g = rng.gen.standard_normal((len(todo), d))
        g -= np.outer(g @ e, e)
        norm = np.linalg.norm(g, axis=1)
        ok = norm > 1e-12
        z[todo[ok]] = g[ok] / norm[ok, None]
        todo = todo[~ok]
    x = heights[:, None] * e + np.sqrt(1.0 - heights * heights)[:, None] * z
    return x[0] if a.ndim == 0 else x


def haar_orthogonal(d: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign-fixed R diagonal."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    g = rng.gen.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs

