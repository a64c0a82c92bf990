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
        # summed elementwise, so each value depends on its own t alone; a BLAS
        # reduction over the table rounds by position and thread count, which
        # would break the exact symmetry of a Gram matrix with this profile
        table = legendre_table(self.d, self.degree, t)
        return np.einsum("n,n...->...", self.alpha, table)


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


def chebyshev_eval(kind: str, n: int, t):
    """Chebyshev polynomial T_n(t) (kind='first') or U_n(t) (kind='second')."""
    if n < 0 or n > MAX_DEGREE:
        raise DomainError(f"degree must be in [0, {MAX_DEGREE}], got {n}")
    t = _check_t(t)
    if kind == "first":
        # T_n = P_{2,n}
        return legendre_table(2, n, t)[n]
    if kind == "second":
        prev, cur = np.ones_like(t), 2.0 * t
        if n == 0:
            return prev
        for _ in range(2, n + 1):
            prev, cur = cur, 2.0 * t * cur - prev
        return cur
    raise DomainError(f"unknown Chebyshev kind {kind!r}")


def legendre_bound(d: int, n: int, t: float) -> float:
    """Pointwise upper bound on |P_{d,n}(t)|, min over the applicable branches.

    Branches: the Gamma-function decay bound, (n/(n+d-2) + 2|t|)^(n/2), and
    (only when n/(n+d-2) + 2|t| <= 1) the product form
    sqrt(prod_i (i/(i+d-2) + 2|t|)).
    """
    if d < 5:
        raise DomainError(f"dimension must be >= 5, got {d}")
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    if abs(t) >= 1.0:
        raise DomainError("|t| must be < 1")
    a = abs(t)
    branches = []
    gamma_branch = (
        math.gamma((d - 1) / 2) / math.sqrt(math.pi)
        * (4.0 / (n * (1.0 - t * t))) ** ((d - 2) / 2)
    )
    branches.append(gamma_branch)
    base = n / (n + d - 2) + 2 * a
    branches.append(base ** (n / 2))
    if base <= 1.0:
        prod = 1.0
        for i in range(1, n + 1):
            prod *= i / (i + d - 2) + 2 * a
        branches.append(math.sqrt(prod))
    return min(branches)


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
    if not 0.0 < gamma < BAND_HALF_WIDTH:
        raise DomainError(f"gamma must be in (0, 1/8), got {gamma}")
    if f.d < 5:
        raise DomainError(f"dimension must be >= 5, got {f.d}")
    # one evaluation of f at +/-gamma and the quadrature nodes together
    nodes, wts = gauss_chebyshev_nodes(n_nodes)
    vals = f(np.concatenate(([gamma, -gamma], nodes)))
    gap = float(abs(vals[0] - vals[1]))
    l1 = float(np.sum(wts * np.abs(vals[2:])))
    C = float(np.max(np.abs(f.alpha))) if len(f.alpha) else 0.0
    lead = 32.0 * gamma * K**3.5
    bound = lead * l1 + (lead + 2.0) * C * legendre_tail_bound(K, f.d, consts)
    return gap, bound
