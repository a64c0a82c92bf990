"""Kernels on the sphere: zonal profiles, feature maps, the exact Legendre
expansion of the shipped kernels, RKHS norms of zonal functions, and
Monte-Carlo kernel symmetrization.

Kernel matrices are built in one output buffer: the inner products (or the
feature products) come from one BLAS call, and a zonal profile is applied in
place, in blocks of about PROFILE_BLOCK entries, so its temporaries stay in
a core's L2 cache.  numpy computes a Gram product X X' with syrk and mirrors
its triangle, so with an elementwise profile the Gram matrix is exactly
symmetric and needs no symmetrization pass.

A symmetric (zonal) kernel k(x, y) = kappa(<x, y>) decomposes as
kappa(s) = sum_n b_n P_{d,n}(s) with b_n >= 0, and the RKHS norm of a zonal
function f = sum_n alpha_n P_{d,n}(<e, .>) is sqrt(sum alpha_n^2 / b_n).
Each shipped profile is a power series sum_k c_k s^k with c_k >= 0 that does
not depend on d (Schoenberg 1942).  RkhsProfile.from_kernel turns these
Taylor coefficients into the b_n at any d >= 3 with a recursion whose
coefficients are all positive, so the expansion is exact to rounding: b >= 0
exactly, sum b_n = kappa(1) and sum b_n P_{d,n} = kappa within a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .orthopoly import PolyCoeffs
from .sphere import RngStream, haar_orthogonal

GRAM_EIG_TOL = 1e-8
SYMMETRIZE_GRID = 257
# entries per block when a profile is applied to a kernel matrix: 2^18 float64
# (2 MB), so the profile's temporaries stay in a 2 MB per-core L2 cache
PROFILE_BLOCK = 2**18


class KernelError(ValueError):
    pass


class InfiniteNormError(ValueError):
    """Zonal coefficients fall outside the kernel's harmonic index set."""


@dataclass
class KernelSpec:
    """A kernel given as a zonal profile or a feature map.

    Exactly one of profile / feature_map is set.  A zonal kernel may carry
    the Taylor coefficients taylor[k] >= 0 of its profile, kappa(s) =
    sum_k taylor[k] s^k, from which its Legendre expansion is exact.
    """

    name: str = "custom"
    profile: object | None = None  # elementwise callable on [-1, 1]
    feature_map: object | None = None  # callable mapping (n, d) -> (n, m)
    taylor: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    profile_std_err: object | None = None  # for tabulated MC estimates

    def __post_init__(self):
        if (self.profile is None) == (self.feature_map is None):
            raise KernelError("exactly one kernel form must be given")

    @property
    def is_zonal(self) -> bool:
        return self.feature_map is None

    def profile_value(self, s):
        """kappa(s) for zonal kernels."""
        if self.profile is None:
            raise KernelError("profile_value needs a zonal kernel")
        s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
        return np.asarray(self.profile(s), dtype=float)


def cross_gram(k: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel matrix k(X_i, Y_j), shape (len(X), len(Y)).

    The inner products fill the one output buffer and a zonal profile is
    applied in place, in blocks of whole rows holding at most PROFILE_BLOCK
    entries (or one row, if a row is longer).  With Y the same array as X
    the one product is X @ X.T (or F @ F.T, the feature map evaluated once),
    which numpy computes with syrk and mirrors, so the result is exactly
    symmetric.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not k.is_zonal:
        FX = k.feature_map(X)
        return FX @ (FX if Y is X else k.feature_map(Y)).T
    K = X @ Y.T
    rows = max(PROFILE_BLOCK // max(K.shape[1], 1), 1)
    for lo in range(0, len(K), rows):
        K[lo:lo + rows] = k.profile_value(K[lo:lo + rows])
    return K


def gram(k: KernelSpec, points: np.ndarray, check_psd: bool = True) -> np.ndarray:
    """Gram matrix of the points, cross_gram(k, points, points).

    Exactly symmetric: the product is one syrk, whose result numpy mirrors,
    and a zonal profile is elementwise.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise KernelError("empty point list")
    G = cross_gram(k, points, points)
    if check_psd:
        min_eig = float(np.linalg.eigvalsh(G)[0])
        if min_eig < -GRAM_EIG_TOL * len(points):
            raise KernelError(f"Gram matrix not PSD: min eigenvalue {min_eig:.3e}")
    return G


# ---------------------------------------------------------------------------
# Legendre expansion and RKHS norms.
# ---------------------------------------------------------------------------

def _taylor_to_legendre(c: np.ndarray, d: int) -> np.ndarray:
    """b_n with sum_k c_k s^k = sum_n b_n P_{d,n}(s), by Horner's rule in the
    Legendre basis.

    Multiplying by s uses
        s P_{d,m} = [(m+d-2) P_{d,m+1} + m P_{d,m-1}] / (2m+d-2),
    whose coefficients are all positive, so c >= 0 gives b >= 0 with no
    cancellation, and the sum of the coefficients is kept at each step.
    """
    if d < 3:
        raise KernelError(f"Legendre expansion needs d >= 3, got {d}")
    c = np.asarray(c, dtype=float)
    m = np.arange(len(c))
    up = (m + d - 2) / (2 * m + d - 2)
    down = m / (2 * m + d - 2)
    b = np.zeros(len(c))
    for ck in c[::-1]:  # b <- s b + c_k; b has degree < len(c) - 1 here
        sb = np.zeros(len(c))
        sb[1:] = up[:-1] * b[:-1]
        sb[:-1] += down[1:] * b[1:]
        sb[0] += ck
        b = sb
    return b


@dataclass
class RkhsProfile:
    """Harmonic structure of a symmetric kernel: the coefficients b_n >= 0 of
    kappa = sum_n b_n P_{d,n}; degree n is in the RKHS iff b_n > 0."""

    d: int
    b: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if np.any(self.b < 0):
            raise KernelError("negative Legendre coefficient: not a kernel")

    @classmethod
    def from_kernel(cls, k: KernelSpec, d: int) -> "RkhsProfile":
        """The exact expansion of a kernel that carries Taylor coefficients."""
        if k.taylor is None:
            raise KernelError(f"kernel {k.name!r} has no Taylor coefficients")
        return cls(d, _taylor_to_legendre(k.taylor, d))


def rkhs_norm_symmetric(f_coeffs, profile: RkhsProfile) -> float:
    """RKHS norm sqrt(sum_n alpha_n^2 / b_n) of a zonal function given as
    PolyCoeffs or a plain coefficient array."""
    if isinstance(f_coeffs, PolyCoeffs):
        if f_coeffs.d != profile.d:
            raise KernelError("dimension mismatch")
        alpha = f_coeffs.alpha
    else:
        alpha = np.asarray(f_coeffs, dtype=float)
    n = np.flatnonzero(alpha)
    b = profile.b
    if len(n) and (n[-1] >= len(b) or np.any(b[n] <= 0)):
        raise InfiniteNormError(
            "a nonzero coefficient lies outside the kernel's index set")
    return math.sqrt(float(np.sum(alpha[n] ** 2 / b[n])))


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

def _truncated(c: np.ndarray) -> np.ndarray:
    """Leading Taylor coefficients, cut where the rest sums to at most machine
    epsilon times kappa(1) = sum c."""
    tail = np.cumsum(c[::-1])[::-1]  # tail[k] = sum_{j >= k} c_j
    return c[:np.count_nonzero(tail > np.finfo(float).eps * tail[0])]


def standard_kernel(name: str, **params) -> KernelSpec:
    """Factory for the shipped zonal kernels, with their Taylor coefficients.

    linear: kappa(s) = s.
    sss:    kappa(s) = 1 / (2 - s) = sum_k s^k / 2^(k+1).
    rbf:    kappa(s) = exp((s - 1) / sigma^2)
                     = exp(-1/sigma^2) sum_k s^k / (sigma^(2k) k!).
    poly:   kappa(s) = ((1 + s) / 2)^degree = sum_k C(degree, k) s^k / 2^degree.
    """
    if name == "linear":
        return KernelSpec(name="linear", profile=lambda s: np.asarray(s, float),
                          taylor=np.array([0.0, 1.0]))
    if name == "sss":
        return KernelSpec(
            name="sss", profile=lambda s: 1.0 / (2.0 - np.asarray(s, float)),
            taylor=_truncated(0.5 ** np.arange(1, 65)),
        )
    if name == "rbf":
        sigma = float(params.get("sigma", 1.0))
        lam = sigma**-2
        # c_k is e^-lam times a Poisson(lam) weight: past lam + 12 sqrt(lam)
        # + 40 terms the tail is far below machine epsilon
        k = np.arange(int(lam + 12.0 * math.sqrt(lam)) + 40)
        return KernelSpec(
            name="rbf",
            profile=lambda s: np.exp((np.asarray(s, float) - 1.0) / sigma**2),
            taylor=_truncated(np.exp(k * math.log(lam) - lam - gammaln(k + 1))),
            params={"sigma": sigma},
        )
    if name == "poly":
        degree = int(params.get("degree", 3))
        return KernelSpec(
            name="poly",
            profile=lambda s: ((1.0 + np.asarray(s, float)) / 2.0) ** degree,
            taylor=np.array([math.comb(degree, k) / 2.0**degree
                             for k in range(degree + 1)]),
            params={"degree": degree},
        )
    raise KernelError(f"unknown kernel {name!r}")
