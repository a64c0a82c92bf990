"""Kernels on the sphere: zonal profiles, feature maps, the exact Legendre
expansion of the shipped kernels, RKHS norms of zonal functions, and
Monte-Carlo kernel symmetrization.

Kernel matrices are built in one output buffer: the inner products (or the
feature products) come from one BLAS call, and a zonal profile is applied in
place, in blocks of at most PROFILE_BLOCK entries, so the blocks stay in a
core's L2 cache.  A Gram matrix is one BLAS dsyrk, which computes the lower
triangle only; the profile runs on that triangle alone and the strict upper
triangle is left undefined, so every reader of a Gram matrix reads its lower
triangle: gram_product and min_eigenvalue below, or the diagonal.  A
profile may overwrite its argument: the shipped ones evaluate in place with
out= ufuncs, which saves a fresh temporary per operation.

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
from scipy.linalg.blas import dsymv, dsyrk
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
    # elementwise callable on float arrays in [-1, 1]; it may overwrite its
    # argument and returns kappa of it
    profile: object | None = None
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
        """kappa(s) for zonal kernels; s is copied first, never written."""
        if self.profile is None:
            raise KernelError("profile_value needs a zonal kernel")
        s = np.array(s, dtype=float)
        np.clip(s, -1.0, 1.0, out=s)
        return np.asarray(self.profile(s), dtype=float)


def _apply_profile(profile, block: np.ndarray) -> None:
    """Overwrite a block of inner products with kappa of them, clipped to
    [-1, 1]; a profile that returns a new array is copied back."""
    np.clip(block, -1.0, 1.0, out=block)
    value = profile(block)
    if value is not block:
        block[...] = value


def _lower_blocks(n: int):
    """Row ranges [lo, hi) of G.T for an n x n Gram matrix G: the block
    G.T[lo:hi, lo:] covers columns lo..hi-1 of G's lower triangle (and the
    corner of the upper one above them), holds at most PROFILE_BLOCK entries
    (or one row, if a row is longer), and its rows are contiguous in the
    F-ordered G."""
    lo = 0
    while lo < n:
        hi = min(lo + max(PROFILE_BLOCK // (n - lo), 1), n)
        yield lo, hi
        lo = hi


def cross_gram(k: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel matrix k(X_i, Y_j), shape (len(X), len(Y)).

    The inner products fill the one output buffer and a zonal profile is
    applied in place, in blocks of whole rows holding at most PROFILE_BLOCK
    entries (or one row, if a row is longer).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not k.is_zonal:
        return k.feature_map(X) @ k.feature_map(Y).T
    K = X @ Y.T
    rows = max(PROFILE_BLOCK // max(K.shape[1], 1), 1)
    for lo in range(0, len(K), rows):
        _apply_profile(k.profile, K[lo:lo + rows])
    return K


def gram(k: KernelSpec, points: np.ndarray, check_psd: bool = True) -> np.ndarray:
    """Lower triangle of the Gram matrix of the points, F-ordered.

    One dsyrk of the points (or of their features) computes the lower
    triangle, equal bit for bit to that of the product X @ X.T, and a zonal
    profile is applied to it in place.  The strict upper triangle is
    undefined: read G with gram_product, min_eigenvalue or np.tril.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise KernelError("empty point list")
    if not k.is_zonal:
        G = dsyrk(1.0, k.feature_map(points), lower=1)
    else:
        G = dsyrk(1.0, points, lower=1)
        GT = G.T  # C-ordered: row j of GT is column j of G
        for lo, hi in _lower_blocks(len(G)):
            _apply_profile(k.profile, GT[lo:hi, lo:])
    if check_psd:
        min_eig = min_eigenvalue(G)
        if min_eig < -GRAM_EIG_TOL * len(points):
            raise KernelError(f"Gram matrix not PSD: min eigenvalue {min_eig:.3e}")
    return G


def gram_product(G: np.ndarray, u: np.ndarray) -> np.ndarray:
    """G @ u for the symmetric matrix whose lower triangle G holds, as gram
    returns it; the strict upper triangle is not read (dsymv).

    G is F-ordered, so BLAS takes it without a copy.
    """
    return dsymv(1.0, G, u, lower=1)


def min_eigenvalue(G: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric matrix whose lower triangle G
    holds, as gram returns it."""
    return float(np.linalg.eigvalsh(G, UPLO="L")[0])


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


def _linear(s):
    return s


def _sss(s):
    np.subtract(2.0, s, out=s)
    return np.divide(1.0, s, out=s)


def standard_kernel(name: str, **params) -> KernelSpec:
    """Factory for the shipped zonal kernels, with their Taylor coefficients.
    Their profiles evaluate in place, in the operation order of the closed
    forms below, so their values are those of the closed forms bit for bit.

    linear: kappa(s) = s.
    sss:    kappa(s) = 1 / (2 - s) = sum_k s^k / 2^(k+1).
    rbf:    kappa(s) = exp((s - 1) / sigma^2)
                     = exp(-1/sigma^2) sum_k s^k / (sigma^(2k) k!).
    poly:   kappa(s) = ((1 + s) / 2)^degree = sum_k C(degree, k) s^k / 2^degree.
    """
    if name == "linear":
        return KernelSpec(name="linear", profile=_linear,
                          taylor=np.array([0.0, 1.0]))
    if name == "sss":
        return KernelSpec(name="sss", profile=_sss,
                          taylor=_truncated(0.5 ** np.arange(1, 65)))
    if name == "rbf":
        sigma = float(params.get("sigma", 1.0))
        lam = sigma**-2
        # c_k is e^-lam times a Poisson(lam) weight: past lam + 12 sqrt(lam)
        # + 40 terms the tail is far below machine epsilon
        k = np.arange(int(lam + 12.0 * math.sqrt(lam)) + 40)

        def rbf(s):
            np.subtract(s, 1.0, out=s)
            np.divide(s, sigma**2, out=s)
            return np.exp(s, out=s)

        return KernelSpec(
            name="rbf", profile=rbf,
            taylor=_truncated(np.exp(k * math.log(lam) - lam - gammaln(k + 1))),
            params={"sigma": sigma},
        )
    if name == "poly":
        degree = int(params.get("degree", 3))

        def poly(s):
            np.add(1.0, s, out=s)
            np.divide(s, 2.0, out=s)
            return np.power(s, degree, out=s)

        return KernelSpec(
            name="poly", profile=poly,
            taylor=np.array([math.comb(degree, k) / 2.0**degree
                             for k in range(degree + 1)]),
            params={"degree": degree},
        )
    raise KernelError(f"unknown kernel {name!r}")
