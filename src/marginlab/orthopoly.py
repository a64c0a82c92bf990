"""d-dimensional Legendre (Gegenbauer-normalized) and Chebyshev polynomials,
pointwise/tail bounds on them, and the band-difference estimate for zonal
expansions.

Note on the recursion sign: some sources print the three-term recursion with a
"+" on the P_{d,n-2} term.  That sign is inconsistent with ||P_{d,n}||_inf = 1
(and with the ordinary Legendre polynomials at d=3), so we use the standard
Gegenbauer-normalized form with a "-":

    P_{d,n}(x) = [(2n+d-4) x P_{d,n-1}(x) - (n-1) P_{d,n-2}(x)] / (n+d-3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sphere import DomainError

# highest polynomial degree; rbf sigma >= 0.02 (2918 Taylor terms) fits
MAX_DEGREE = 4096
DOMAIN_TOL = 1e-12

# Arcsine noise band is [-1/8, 1/8] throughout.
BAND_HALF_WIDTH = 0.125

DEFAULT_QUAD_NODES = 256
# series evaluated in one product by changes_slowly_gaps
SERIES_BLOCK = 128


@dataclass(frozen=True)
class TailConstants:
    """Constants of the Legendre tail estimate sum_{n>=K} |P_{d,n}(t)| <= E r^K + E s^d.

    Pinned to the explicit values appearing in the final display of the tail
    estimate's derivation; tighter constants exist.
    """

    E: float = 12.0
    r: float = math.sqrt(3.0 / 4.0)
    s: float = math.sqrt(4.07 / (2.0 * math.e))

    def __post_init__(self):
        assert self.E > 0 and 0 < self.r < 1 and 0 < self.s < 1


@dataclass(frozen=True)
class PolyCoeffs:
    """A zonal function f(t) = sum_n alpha[n] * P_{d,n}(t)."""

    d: int
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.d < 2:
            raise DomainError(f"dimension must be >= 2, got {self.d}")
        if not np.all(np.isfinite(self.alpha)):
            raise DomainError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.alpha) - 1

    def __call__(self, t):
        return _series(self.alpha, legendre_table(self.d, self.degree, t))


def _series(alpha, table):
    """sum_n alpha[n] table[n] over the first len(alpha) rows of a table; a
    2-D alpha holds one series per column and gives one row of values each.

    Summed elementwise in order of n, so each value depends on its own t and
    series alone; a BLAS reduction over the table rounds by position and
    thread count, which would break the exact symmetry of a Gram matrix with
    this profile."""
    subscripts = "nk,n...->k..." if np.ndim(alpha) == 2 else "n,n...->..."
    return np.einsum(subscripts, alpha, table[:len(alpha)])


def _check_t(t, tol: float = DOMAIN_TOL):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + tol):
        raise DomainError("argument outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def legendre_table(d: int, nmax: int, t) -> np.ndarray:
    """All P_{d,n}(t) for n = 0..nmax, shape (nmax+1,) + shape(t)."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if nmax < 0 or nmax > MAX_DEGREE:
        raise DomainError(f"degree must be in [0, {MAX_DEGREE}], got {nmax}")
    t = _check_t(t)
    out = np.empty((nmax + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = t
    for n in range(2, nmax + 1):
        out[n] = ((2 * n + d - 4) * t * out[n - 1] - (n - 1) * out[n - 2]) / (n + d - 3)
    return out


def chebyshev_table(kind: str, nmax: int, t) -> np.ndarray:
    """All T_n(t) (kind='first') or U_n(t) (kind='second') for n = 0..nmax,
    shape (nmax+1,) + shape(t)."""
    if nmax < 0 or nmax > MAX_DEGREE:
        raise DomainError(f"degree must be in [0, {MAX_DEGREE}], got {nmax}")
    t = _check_t(t)
    if kind == "first":
        # T_n = P_{2,n}
        return legendre_table(2, nmax, t)
    if kind == "second":
        out = np.empty((nmax + 1,) + t.shape, dtype=float)
        out[0] = 1.0
        if nmax >= 1:
            out[1] = 2.0 * t
        for n in range(2, nmax + 1):
            out[n] = 2.0 * t * out[n - 1] - out[n - 2]
        return out
    raise DomainError(f"unknown Chebyshev kind {kind!r}")


def legendre_bound(d: int, n, t):
    """Pointwise upper bound on |P_{d,n}(t)|, min over the applicable branches.

    Branches: the Gamma-function decay bound, (n/(n+d-2) + 2|t|)^(n/2), and
    (only when n/(n+d-2) + 2|t| <= 1) the product form
    sqrt(prod_i (i/(i+d-2) + 2|t|)).  The degree n is an integer or an
    integer array that broadcasts against t, and the bound has the
    broadcast shape; scalar n and t give a float.  Every entry runs the same
    operations, so its bound does not depend on the entries around it: the
    power is taken one degree at a time with a scalar exponent, since numpy
    rounds x ** 0.5 and x ** 2 (its sqrt and square fast paths) differently
    from a power with an array exponent, and row n of the cumulative product
    multiplies the factors i = 1..n in order, as a product of n factors does.
    """
    if d < 5:
        raise DomainError(f"dimension must be >= 5, got {d}")
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        raise DomainError(f"degree must be an integer, got {n.dtype}")
    if np.any(n < 1):
        raise DomainError(f"degree must be >= 1, got {n.min()}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= 1.0):
        raise DomainError("|t| must be < 1")
    shape = np.broadcast_shapes(n.shape, t.shape)
    n, t = (np.broadcast_to(x, shape).ravel() for x in (n, t))
    a = np.abs(t)
    gamma_branch = (
        math.gamma((d - 1) / 2) / math.sqrt(math.pi)
        * (4.0 / (n * (1.0 - t * t))) ** ((d - 2) / 2)
    )
    base = n / (n + d - 2) + 2 * a
    power = np.empty_like(base)
    for k in np.unique(n).tolist():
        at = n == k
        power[at] = base[at] ** (k / 2)
    bound = np.minimum(gamma_branch, power)
    inside = np.flatnonzero(base <= 1.0)
    if len(inside):
        # row i-1 holds the factors i/(i+d-2) + 2|t| of every entry inside
        i = np.arange(1, n[inside].max() + 1)
        prods = np.cumprod((i / (i + d - 2))[:, None] + 2 * a[inside], axis=0)
        bound[inside] = np.minimum(
            bound[inside],
            np.sqrt(prods[n[inside] - 1, np.arange(len(inside))]))
    return bound.reshape(shape) if shape else float(bound[0])


def legendre_tail_bound(K: int, d: int, consts: TailConstants = TailConstants()) -> float:
    """Upper bound on sum_{n>=K} |P_{d,n}(t)| valid for all |t| <= 1/8.

    Uses the explicit display  (1/(1-r)) r^K + E s^(d-2)  with the pinned
    constants (this equals (1/(1-sqrt(3/4))) (3/4)^(K/2) + 12 (4.07/2e)^((d-2)/2)).
    """
    if d < 5:
        raise DomainError(f"dimension must be >= 5, got {d}")
    if K < 1:
        raise DomainError(f"cutoff must be >= 1, got {K}")
    return consts.r**K / (1.0 - consts.r) + consts.E * consts.s ** (d - 2)


# ---------------------------------------------------------------------------
# Arcsine measure on [-1/8, 1/8] and quadrature against it.
# ---------------------------------------------------------------------------

def gauss_chebyshev_nodes(n_nodes: int = DEFAULT_QUAD_NODES):
    """Nodes/weights for the arcsine probability measure on [-1/8, 1/8].

    Gauss-Chebyshev nodes mapped into the band; exact for polynomials of
    degree <= 2*n_nodes - 1.
    """
    j = np.arange(1, n_nodes + 1)
    u = np.cos((2 * j - 1) * np.pi / (2 * n_nodes))
    return u * BAND_HALF_WIDTH, np.full(n_nodes, 1.0 / n_nodes)


def arcsine_norm(f, p: int = 1, n_nodes: int = DEFAULT_QUAD_NODES) -> float:
    """L^p norm of a callable against the arcsine measure on the band."""
    x, w = gauss_chebyshev_nodes(n_nodes)
    vals = np.abs(np.asarray(f(x), dtype=float))
    return float(np.sum(w * vals**p) ** (1.0 / p))


def arcsine_orthopoly_table(nmax: int, x) -> np.ndarray:
    """Orthonormal polynomials p_0..p_nmax of the arcsine measure on
    [-1/8, 1/8] at x, shape (nmax+1,) + shape(x): p_0 = 1 and
    p_n = sqrt(2) T_n(8x), all rows from one Chebyshev recursion."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > BAND_HALF_WIDTH + DOMAIN_TOL):
        raise DomainError("argument outside [-1/8, 1/8]")
    table = legendre_table(2, nmax, np.clip(x * 8.0, -1, 1))
    table[1:] *= math.sqrt(2.0)
    return table


def changes_slowly_gap(
    f: PolyCoeffs,
    gamma: float,
    K: int,
    consts: TailConstants = TailConstants(),
    n_nodes: int = DEFAULT_QUAD_NODES,
) -> tuple[float, float]:
    """Band-difference |f(gamma) - f(-gamma)| and its analytic upper bound.

    The bound is  32 gamma K^3.5 ||f||_{1,mu} + (32 gamma K^3.5 + 2) C tail(K, d)
    with C = max_n |alpha_n| and tail the explicit Legendre tail estimate.
    Contract: gap <= bound.
    """
    return changes_slowly_gaps([f], [gamma], [K], consts, n_nodes)[0]


def changes_slowly_gaps(
    fs,
    gammas,
    Ks,
    consts: TailConstants = TailConstants(),
    n_nodes: int = DEFAULT_QUAD_NODES,
) -> list[tuple[float, float]]:
    """changes_slowly_gap of each (f, gamma, K) triple, in order.

    All series of one dimension are evaluated together on one Legendre
    table, up to their highest degree, at every +/-gamma and the quadrature
    nodes: their coefficients, zero-padded to that degree, are the columns
    of one matrix.  Each series' values, gap and norm are those of a single
    call, bit for bit.
    """
    if not len(fs) == len(gammas) == len(Ks):
        raise DomainError("need one gamma and one K per series")
    for f, gamma in zip(fs, gammas):
        if not 0.0 < gamma < BAND_HALF_WIDTH:
            raise DomainError(f"gamma must be in (0, 1/8), got {gamma}")
        if f.d < 5:
            raise DomainError(f"dimension must be >= 5, got {f.d}")
        if f.degree < 0:
            raise DomainError("series has no coefficients")
    nodes, wts = gauss_chebyshev_nodes(n_nodes)
    out = [None] * len(fs)
    for d in sorted({f.d for f in fs}):
        batch = [i for i, f in enumerate(fs) if f.d == d]
        # column 2j holds +gamma_j and column 2j+1 holds -gamma_j
        column = {g: 2 * j for j, g in enumerate(dict.fromkeys(
            gammas[i] for i in batch))}
        ts = [t for g in column for t in (g, -g)]
        table = legendre_table(d, max(fs[i].degree for i in batch),
                               np.concatenate((ts, nodes)))
        # SERIES_BLOCK series at a time bound the values held at once
        for first in range(0, len(batch), SERIES_BLOCK):
            block = batch[first:first + SERIES_BLOCK]
            coeffs = np.zeros((max(fs[i].degree for i in block) + 1,
                               len(block)))
            for r, i in enumerate(block):
                coeffs[:fs[i].degree + 1, r] = fs[i].alpha
            # vals[t, r] is series r at point t, a view of one row per series
            vals = _series(coeffs, table).T
            cols = np.array([column[gammas[i]] for i in block])
            series = np.arange(len(block))
            gaps = np.abs(vals[cols, series] - vals[cols + 1, series])
            # each series' quadrature values are one contiguous row, summed
            # as a single call sums them; in place, as vals is not read again
            quad = vals[len(ts):].T
            np.abs(quad, out=quad)
            quad *= wts
            l1s = np.sum(quad, axis=1)
            Cs = np.max(np.abs(coeffs), axis=0)
            for i, gap, l1, C in zip(block, gaps.tolist(), l1s.tolist(),
                                     Cs.tolist()):
                gamma, K = gammas[i], Ks[i]
                lead = 32.0 * gamma * K**3.5
                tail = legendre_tail_bound(K, d, consts)
                out[i] = (gap, lead * l1 + (lead + 2.0) * C * tail)
    return out
