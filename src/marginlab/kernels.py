"""Kernels on the sphere: zonal profiles, feature maps, Legendre decomposition
of symmetric kernels, RKHS norms of zonal functions, and Monte-Carlo kernel
symmetrization.

A symmetric (zonal) kernel k(x, y) = kappa(<x, y>) decomposes as
kappa(s) = sum_n b_n P_{d,n}(s) with b_n >= 0, and the RKHS norm of a zonal
function f = sum_n alpha_n P_{d,n}(<e, .>) is sqrt(sum alpha_n^2 / b_n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_gegenbauer

from .orthopoly import PolyCoeffs, legendre_table
from .sphere import RngStream, haar_orthogonal, harmonic_dim, sphere_area

GRAM_EIG_TOL = 1e-8
COEFF_ZERO_REL_TOL = 1e-12
DEFAULT_NMAX = 64
SYMMETRIZE_GRID = 257
# rows per block when a profile is applied to a kernel matrix; a 256 x 4000
# block of float64 (8 MB) stays in cache
ROW_BLOCK = 256


class KernelError(ValueError):
    pass


class InfiniteNormError(ValueError):
    """Zonal coefficients fall outside the kernel's harmonic index set."""


@dataclass
class KernelSpec:
    """A kernel given as a zonal profile, a feature map, or a Legendre series.

    Exactly one of profile / feature_map / legendre is set.  With normalize,
    zonal evaluation divides by kappa(1) so that sup k(x, x) = 1.
    """

    name: str = "custom"
    profile: object | None = None  # vectorized callable on [-1, 1]
    feature_map: object | None = None  # callable mapping (n, d) -> (n, m)
    legendre: tuple[int, np.ndarray] | None = None  # (d, coefficient array b)
    normalize: bool = False
    params: dict = field(default_factory=dict)
    profile_std_err: object | None = None  # for tabulated MC estimates

    def __post_init__(self):
        forms = [self.profile, self.feature_map, self.legendre]
        if sum(f is not None for f in forms) != 1:
            raise KernelError("exactly one kernel form must be given")

    @property
    def is_zonal(self) -> bool:
        return self.feature_map is None

    def profile_value(self, s):
        """kappa(s) for zonal kernels (normalized if the flag is set)."""
        s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
        if self.profile is not None:
            vals = np.asarray(self.profile(s), dtype=float)
            if self.normalize:
                vals = vals / float(self.profile(np.asarray(1.0)))
            return vals
        if self.legendre is not None:
            d, b = self.legendre
            table = legendre_table(d, len(b) - 1, s)
            vals = np.tensordot(np.asarray(b, float), table, axes=(0, 0))
            if self.normalize:
                vals = vals / float(np.sum(b))
            return vals
        raise KernelError("profile_value needs a zonal kernel")


def cross_gram(k: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel matrix k(X_i, Y_j), shape (len(X), len(Y)).

    The inner products fill the one output buffer and a zonal profile is
    applied in place, ROW_BLOCK rows at a time, so no temporary is larger
    than a row block.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not k.is_zonal:
        return k.feature_map(X) @ k.feature_map(Y).T
    K = X @ Y.T
    for lo in range(0, len(K), ROW_BLOCK):
        K[lo:lo + ROW_BLOCK] = k.profile_value(K[lo:lo + ROW_BLOCK])
    return K


def gram(k: KernelSpec, points: np.ndarray, check_psd: bool = True) -> np.ndarray:
    """Symmetric Gram matrix of the points, (P + P') / 2 of cross_gram's P.

    Symmetrized in place, one row strip against its column strip, so the
    result is exactly symmetric (a feature map's product need not be) with
    no n x n temporary.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise KernelError("empty point list")
    G = cross_gram(k, points, points)
    for lo in range(0, len(G), ROW_BLOCK):
        hi = lo + ROW_BLOCK
        strip = G[lo:hi, lo:] + G[lo:, lo:hi].T
        strip *= 0.5
        G[lo:hi, lo:] = strip
        G[lo:, lo:hi] = strip.T
    if check_psd:
        min_eig = float(np.linalg.eigvalsh(G)[0])
        if min_eig < -GRAM_EIG_TOL * len(points):
            raise KernelError(f"Gram matrix not PSD: min eigenvalue {min_eig:.3e}")
    return G


# ---------------------------------------------------------------------------
# Legendre decomposition and RKHS norms.
# ---------------------------------------------------------------------------

def profile_to_legendre(kappa, d: int, nmax: int = DEFAULT_NMAX,
                        tail_tol: float = 1e-8) -> np.ndarray:
    """Legendre coefficients b_n of a continuous zonal profile.

    b_n = <kappa, P_{d,n}> / <P_{d,n}, P_{d,n}> against the Gegenbauer weight
    (1 - s^2)^((d-3)/2), by Gauss-Gegenbauer quadrature (exact for the
    polynomial parts).  Raises if the geometric fit of the last coefficients
    estimates a truncation tail above tail_tol.
    """
    if d < 3:
        raise KernelError(f"decomposition needs d >= 3, got {d}")
    n_nodes = max(256, 2 * (nmax + 1))
    nodes, weights = roots_gegenbauer(n_nodes, (d - 2) / 2.0)
    table = legendre_table(d, nmax, nodes)
    kv = np.asarray(kappa(nodes), dtype=float)
    num = table @ (weights * kv)
    den = (table**2) @ weights
    b = num / den
    _check_tail(b, tail_tol)
    return b


def _check_tail(b: np.ndarray, tail_tol: float):
    """Estimate sum of |b_n| past the cutoff from a geometric fit of the last 8."""
    tail_mags = np.abs(b[-8:])
    # quadrature noise floor: ratios of pure noise look divergent
    if np.all(tail_mags < 1e-10):
        return
    ratios = tail_mags[1:] / np.maximum(tail_mags[:-1], 1e-300)
    q = float(np.median(ratios))
    last = float(tail_mags[-1])
    est = last * q / (1.0 - q) if q < 1.0 else math.inf
    if est > tail_tol:
        raise KernelError(
            f"Legendre series not converged at nmax={len(b) - 1}: "
            f"estimated tail {est:.3e}"
        )


@dataclass
class RkhsProfile:
    """Harmonic structure of a symmetric kernel: coefficients b_n >= 0, the
    active index set, and the induced per-degree norm weights."""

    d: int
    b: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if np.any(self.b < -GRAM_EIG_TOL):
            raise KernelError("negative Legendre coefficient: not a kernel")
        total = float(np.sum(self.b))
        self.index_set = np.flatnonzero(self.b > COEFF_ZERO_REL_TOL * total)

    @classmethod
    def from_kernel(cls, k: KernelSpec, d: int, nmax: int = DEFAULT_NMAX) -> "RkhsProfile":
        if not k.is_zonal:
            raise KernelError("only zonal kernels have a Legendre profile")
        if k.legendre is not None:
            kd, b = k.legendre
            if kd != d:
                raise KernelError("dimension mismatch")
            b = np.asarray(b, float)
            return cls(d, b / np.sum(b) if k.normalize else b)
        return cls(d, profile_to_legendre(k.profile_value, d, nmax))

    def a_sq(self, n: int) -> float:
        """a_n^2 = N_{d,n} / (|S^{d-1}| b_n) for active degrees."""
        if n not in self.index_set:
            raise InfiniteNormError(f"degree {n} outside the index set")
        return harmonic_dim(self.d, n) / (sphere_area(self.d) * self.b[n])

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "b": self.b.tolist()}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RkhsProfile":
        doc = json.loads(text)
        return cls(int(doc["d"]), np.asarray(doc["b"], dtype=float))


def rkhs_norm_symmetric(f_coeffs, profile: RkhsProfile) -> float:
    """RKHS norm sqrt(sum_n alpha_n^2 / b_n) of a zonal function given as
    PolyCoeffs or a plain coefficient array."""
    if isinstance(f_coeffs, PolyCoeffs):
        if f_coeffs.d != profile.d:
            raise KernelError("dimension mismatch")
        alpha = f_coeffs.alpha
    else:
        alpha = np.asarray(f_coeffs, dtype=float)
    b = profile.b
    norm_sq = 0.0
    active = set(int(n) for n in profile.index_set)
    # coefficients at the quadrature noise floor are treated as exact zeros
    zero_tol = 1e-10 * max(1.0, float(np.max(np.abs(alpha))) if len(alpha) else 1.0)
    for n, a in enumerate(alpha):
        if abs(a) <= zero_tol:
            continue
        if n >= len(b) or n not in active:
            raise InfiniteNormError(
                f"coefficient at degree {n} outside the kernel's index set"
            )
        norm_sq += a * a / b[n]
    return math.sqrt(norm_sq)


# ---------------------------------------------------------------------------
# Monte-Carlo symmetrization.
# ---------------------------------------------------------------------------

def symmetrize_mc(k: KernelSpec, d: int, n_rotations: int, rng: RngStream) -> KernelSpec:
    """Haar-average k(Ax, Ay), tabulated as a zonal profile on an inner-product
    grid with per-gridpoint standard errors (linear interpolation between nodes).
    """
    if n_rotations < 16:
        raise KernelError("need at least 16 rotations")
    s_grid = np.cos(np.linspace(np.pi, 0.0, SYMMETRIZE_GRID))
    # one representative pair per grid value of the inner product
    X = np.zeros((SYMMETRIZE_GRID, d))
    Y = np.zeros((SYMMETRIZE_GRID, d))
    X[:, 0] = 1.0
    Y[:, 0] = s_grid
    Y[:, 1] = np.sqrt(np.clip(1.0 - s_grid**2, 0.0, None))
    acc = np.zeros(SYMMETRIZE_GRID)
    acc_sq = np.zeros(SYMMETRIZE_GRID)
    for _ in range(n_rotations):
        A = haar_orthogonal(d, rng)
        XA, YA = X @ A.T, Y @ A.T
        if k.is_zonal:
            vals = k.profile_value(np.sum(XA * YA, axis=1))
        else:
            vals = np.sum(k.feature_map(XA) * k.feature_map(YA), axis=1)
        acc += vals
        acc_sq += vals**2
    mean = acc / n_rotations
    var = np.maximum(acc_sq / n_rotations - mean**2, 0.0)
    std_err = np.sqrt(var / n_rotations)

    grid, vals = s_grid.copy(), mean.copy()
    return KernelSpec(
        name=f"{k.name}_symmetrized",
        profile=lambda s: np.interp(s, grid, vals),
        params={"n_rotations": n_rotations, "grid": grid, "values": vals},
        profile_std_err=lambda s: np.interp(s, grid, std_err),
    )


# ---------------------------------------------------------------------------
# Shipped kernels.
# ---------------------------------------------------------------------------

def standard_kernel(name: str, **params) -> KernelSpec:
    """Factory for the shipped zonal kernels.

    linear: kappa(s) = s.
    sss:    kappa(s) = 1 / (1 - s/2), normalized by kappa(1) = 2.
    rbf:    kappa(s) = exp((s - 1) / sigma^2).
    poly:   kappa(s) = ((1 + s) / 2)^degree.
    """
    if name == "linear":
        return KernelSpec(name="linear", profile=lambda s: np.asarray(s, float))
    if name == "sss":
        return KernelSpec(
            name="sss", profile=lambda s: 1.0 / (1.0 - 0.5 * np.asarray(s, float)),
            normalize=True,
        )
    if name == "rbf":
        sigma = float(params.get("sigma", 1.0))
        return KernelSpec(
            name="rbf",
            profile=lambda s: np.exp((np.asarray(s, float) - 1.0) / sigma**2),
            params={"sigma": sigma},
        )
    if name == "poly":
        degree = int(params.get("degree", 3))
        return KernelSpec(
            name="poly",
            profile=lambda s: ((1.0 + np.asarray(s, float)) / 2.0) ** degree,
            params={"degree": degree},
        )
    raise KernelError(f"unknown kernel {name!r}")
