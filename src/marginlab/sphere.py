"""Geometry and sampling on the unit sphere S^{d-1}.

Uniform and band sampling and Haar-random rotations.  All randomness flows
through RngStream so runs are reproducible and parallel fan-out is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-9
# entries of the draws and of the outer products with e that sample_band
# forms at a time: 64 KB, below glibc's mmap threshold, so they come from
# the heap
ROW_CHUNK = 2**13

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


def sample_band(e: np.ndarray, a, rng: RngStream,
                out: np.ndarray | None = None) -> np.ndarray:
    """Points x on S^{d-1} with <x, e> = a, uniform on the codimension-1 sphere.

    Constructs x = a e + sqrt(1 - a^2) z with z uniform on the unit sphere of
    the orthogonal complement of e.  A scalar height gives one point of shape
    (d,); an array of n heights gives n points of shape (n, d), drawn in one
    pass, into out if it is given (a C-ordered float64 (n, d) array).

    The points are formed in the array returned.  Where no height is +-1,
    the Gaussian draw is made into it ROW_CHUNK entries at a time, which
    gives the numbers of one draw; it is then projected, normalized and
    mixed with the heights in place, with the outer products with e formed
    ROW_CHUNK entries at a time.  Beyond the points, nothing larger than a
    column of n is allocated, except for rows drawn again.  Each entry
    takes the floating-point operations of the plain formula,
    g - outer(g @ e, e), its rows over np.linalg.norm, and
    a e + sqrt(1 - a^2) z, so the points are that formula's bit for bit.
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
    n = len(heights)
    x = np.empty((n, d)) if out is None else out
    rows = max(ROW_CHUNK // max(d, 1), 1)
    buffer = np.empty((min(rows, n), d))
    if len(todo) < n:
        x.fill(0.0)  # z is 0 at the poles
    while len(todo):  # redraw the rows whose orthogonal part is degenerate
        if len(todo) == n:  # the draw of every row, in chunks, as one draw
            for lo in range(0, n, rows):
                x[lo:lo + rows] = rng.gen.standard_normal(x[lo:lo + rows].shape)
            g = x
        else:
            g = rng.gen.standard_normal((len(todo), d))
        p = g @ e
        norm = np.empty(len(g))
        for lo in range(0, len(g), rows):  # g -= outer(p, e), and its norms
            chunk = g[lo:lo + rows]
            part = buffer[:len(chunk)]
            np.subtract(chunk, np.multiply(p[lo:lo + rows, None], e,
                                           out=part), out=chunk)
            np.add.reduce(np.multiply(chunk, chunk, out=part), axis=1,
                          out=norm[lo:lo + rows])
        np.sqrt(norm, out=norm)
        ok = norm > 1e-12
        np.divide(g, norm[:, None], out=g, where=ok[:, None])
        if g is not x:
            x[todo[ok]] = g[ok]
        todo = todo[~ok]
    # x becomes a e + sqrt(1 - a^2) z; the sum's operands commute
    np.multiply(x, np.sqrt(1.0 - heights * heights)[:, None], out=x)
    for lo in range(0, n, rows):
        chunk = x[lo:lo + rows]
        np.add(chunk, np.multiply(heights[lo:lo + rows, None], e,
                                  out=buffer[:len(chunk)]), out=chunk)
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

