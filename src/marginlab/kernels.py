"""Kernels on the sphere: zonal profiles, feature maps, the exact Legendre
expansion of the shipped kernels, RKHS norms of zonal functions, and
Monte-Carlo kernel symmetrization.

Kernel matrices are formed in one buffer, and a zonal profile is applied in
place, at most PROFILE_BLOCK entries at a time, so a block stays in a
core's L2 cache; a profile may overwrite its argument.  A Gram matrix holds
its lower triangle only, and the strict upper triangle is undefined: every
reader reads the lower triangle, as gram_product and min_eigenvalue do.

The storage precision is decided in gram alone: float64 below F32_MIN_N
points and float32 from F32_MIN_N on.  A float32 triangle only steers a
solver; exact_gram_product gives K V in float64 from the points, without
storing K, and that is what a caller reports numbers from.  Test scores
against F32_MIN_N support points or more are screened in float32 where
screens says so: screened_scores gives each score with an a-priori bound
on its distance to the float64 score, and a caller rescores with the
float64 path every point that lies within its bound of a threshold, as
learners.evaluate does.

A float32 triangle lives in an anonymous mapping of its own, on 4 KB pages
where the platform allows, so only the pages that its build writes become
resident.  A caller that reads its triangle no more hands it back
(hand_back), and the next float32 gram of that size builds in it; the
process keeps at most one such spare, and two live triangles never share
memory.  While it waits, the spare lends the head of its mapping as
scratch (_loan) to the exact pass, the screen and cross_gram_product: its
first min(n, PAGESIZE / 4) columns, where every page holds lower-triangle
bytes, so a loan faults in no page.  A loan takes the spare out of the
module until it ends, and falls back to np.empty where there is no spare
or its head is too small.  The spare is shared under a lock by the threads
of harness.sweep.

Every pass is one serial loop over its blocks, and every buffer policy
above keeps the floating-point operations and their order, so the bits are
those of the plain forms: a build writes all of the lower triangle, and
what a loan writes is scratch, so what a spare held changes no bit.

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

import contextlib
import math
import mmap
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsymv, dsyrk, ssymv, ssyrk
from scipy.special import gammaln

from .orthopoly import PolyCoeffs
from .sphere import RngStream, haar_orthogonal

SYMMETRIZE_GRID = 257
# entries per block when a profile is applied to a kernel matrix: 2^18 float64
# (2 MB), so the profile's temporaries stay in a 2 MB per-core L2 cache
PROFILE_BLOCK = 2**18
# points from which a Gram matrix is stored in float32.  A solve with 40
# products then costs a float32 build, 40 ssymv and one exact_gram_product
# in place of a float64 build and 40 dsymv; at one BLAS thread (rbf, d=25,
# medians of 7 in each of three runs on a shared 2-vCPU Xeon) that is
# 12-15 -> 10-13 ms at 1024 points, 54-70 -> 36-45 ms at 2048 and 276-304
# -> 178-200 ms at 4000.  From 2048 the gain is clear at short schedules,
# and every smaller program keeps its float64 bits
F32_MIN_N = 2048
# support points per float32 partial sum in screened_scores: the bound on
# a sum's rounding grows with its length, gamma_M.  At 4000 rbf support
# points (d=25, one BLAS thread, same host) 5000 scores took 0.094-0.111 s
# in float64 and 0.039-0.053 s screened, alike at M = 16 to 128; at 16 the
# bound is about 3e-6 sum |alpha|, against 1e-5 at 128, and fewer points
# need a recheck
SCREEN_CHUNK = 16
# numpy's exp and power, in float32 and in float64, are taken to be within
# LIBM_ROUNDING u of the exact value, u the unit roundoff (about 4 ulp):
# measured, float32 exp over every float32 in [-104, 0] is within 3.6 u
# and float32 power to degree 12 within 1.8 u (AVX-512 host, numpy 2.4)
LIBM_ROUNDING = 8
U32, U64 = 2.0**-24, 2.0**-53
# float32's smallest normal number: a float32 operation that underflows is
# off by less than this
TINY32 = float(np.finfo(np.float32).tiny)


class KernelError(ValueError):
    pass


class InfiniteNormError(ValueError):
    """Zonal coefficients fall outside the kernel's harmonic index set."""


@dataclass
class KernelSpec:
    """A kernel given as a zonal profile or a feature map.

    Exactly one of profile / feature_map is set.  A zonal kernel may carry
    the Taylor coefficients taylor[k] >= 0 of its profile, kappa(s) =
    sum_k taylor[k] s^k, from which its Legendre expansion is exact, and
    the rounding rho of its profile: evaluated in float32 (float64) at a
    float32 (float64) t in [-1, 1], the profile is within
    rho u kappa(1) + TINY32 of kappa(t), u = U32 (U64).
    """

    name: str = "custom"
    # elementwise callable on float arrays in [-1, 1]; it may overwrite its
    # argument and returns kappa of it
    profile: object | None = None
    feature_map: object | None = None  # callable mapping (n, d) -> (n, m)
    taylor: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    profile_std_err: object | None = None  # for tabulated MC estimates
    rounding: float | None = None  # rho above; screened_scores needs it

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


# the mapping of a float32 triangle that hand_back was given, or None
_spare = None
_spare_lock = threading.Lock()


def _triangle(n: int) -> np.ndarray:
    """An F-ordered float32 (n, n) array for gram: the spare, if it has n
    rows, or else a fresh private anonymous mapping of n^2 4 bytes, advised
    onto 4 KB pages where the platform allows, so that only the pages a
    build writes become resident."""
    global _spare
    with _spare_lock:
        if _spare is not None and len(_spare) == 4 * n * n:
            buffer, _spare = _spare, None
        else:
            buffer = None
    if buffer is None:
        if hasattr(mmap, "MAP_PRIVATE"):
            buffer = mmap.mmap(-1, 4 * n * n, mmap.MAP_PRIVATE)
        else:
            buffer = mmap.mmap(-1, 4 * n * n)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray((n, n), np.float32, buffer, order="F")


@contextlib.contextmanager
def _loan(shape, dtype=float):
    """An uninitialized array of the shape and dtype, for scratch until the
    with block ends: the head of the spare triangle, taken out of the
    module meanwhile, where it holds enough bytes, or else np.empty (module
    docstring).  No view of it may outlive the block."""
    global _spare
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    with _spare_lock:
        spare = _spare
        if spare is not None:
            n = math.isqrt(len(spare) // 4)
            if 4 * n * min(n, mmap.PAGESIZE // 4) >= nbytes:
                _spare = None
            else:
                spare = None
    if spare is None:
        yield np.empty(shape, dtype)
        return
    try:
        yield np.ndarray(shape, dtype, spare)
    finally:
        with _spare_lock:
            if _spare is None:  # else a later hand-back replaced it
                _spare = spare


def hand_back(G: np.ndarray) -> None:
    """Keep the memory of G, a float32 triangle from gram, or a view of all
    of it, as the spare for the next gram of its size; the caller reads G
    no more.  It replaces the spare before it, and any other array is left
    alone."""
    global _spare
    buffer = G
    while isinstance(buffer, np.ndarray):
        buffer = buffer.base
    if isinstance(buffer, mmap.mmap) and len(buffer) == G.nbytes:
        with _spare_lock:
            _spare = buffer


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
    return _zonal_cross(k, X, Y, np.empty((len(X), len(Y))))


def _zonal_cross(k: KernelSpec, X: np.ndarray, Y: np.ndarray,
                 K: np.ndarray) -> np.ndarray:
    """cross_gram of a zonal kernel, formed in K, a C-ordered (len(X),
    len(Y)) float64 array."""
    np.matmul(X, Y.T, out=K)
    rows = max(PROFILE_BLOCK // max(K.shape[1], 1), 1)
    for lo in range(0, len(K), rows):
        _apply_profile(k.profile, K[lo:lo + rows])
    return K


def cross_gram_product(k: KernelSpec, X: np.ndarray, Y: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
    """cross_gram(k, X, Y) @ v, bit for bit, with a zonal kernel's matrix
    formed in a loan of the spare triangle (module docstring)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if not k.is_zonal:
        return cross_gram(k, X, Y) @ v
    with _loan((len(X), len(Y))) as K:
        return _zonal_cross(k, X, Y, K) @ v


def gram(k: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Lower triangle of the Gram matrix of the points, F-ordered: float32
    from F32_MIN_N points on, float64 below.

    A feature map's triangle is one syrk of the features.  Below F32_MIN_N
    points a zonal kernel's is one dsyrk of the points, equal bit for bit
    to the lower triangle of the product X @ X.T, with the profile applied
    to it in place, one _lower_blocks block at a time.  From F32_MIN_N
    points on each such block, columns lo..hi-1 of G from row lo down, is
    one sgemm of the float32 points, written into G, and the profile, in
    float32, runs on it while it is still in cache, without a second pass
    over the triangle from memory; G is the spare triangle or a fresh
    mapping (module docstring).  The sgemm of a block of two rows or more
    gave the bits of one ssyrk's triangle in every case measured (scipy's
    OpenBLAS, n in {7, 600, 2048, 2085, 4000}, d in {3, 25}, one and two
    BLAS threads); it is a property of the BLAS build, not a guarantee,
    and tests/test_kernels.py pins it.  A one-row block goes to a BLAS gemv
    through numpy's matmul and rounds otherwise.  At the shipped
    PROFILE_BLOCK only the last block can be one row up to 2^17 points, and
    from 2^17 + 1 points on the first one is.  The strict upper triangle is
    undefined: read G with gram_product, min_eigenvalue or np.tril.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise KernelError("empty point list")
    f32 = len(points) >= F32_MIN_N
    if not k.is_zonal:
        return (ssyrk if f32 else dsyrk)(1.0, k.feature_map(points), lower=1)
    if f32:
        P = points.astype(np.float32)
        G = _triangle(len(P))
    else:
        G = dsyrk(1.0, points, lower=1)
    GT = G.T  # C-ordered: row j of GT is column j of G
    for lo, hi in _lower_blocks(len(G)):
        block = GT[lo:hi, lo:]
        if f32:
            np.matmul(P[lo:hi], P[lo:].T, out=block)
        _apply_profile(k.profile, block)
    return G


def gram_product(G: np.ndarray, u: np.ndarray) -> np.ndarray:
    """G @ u in float64 for the symmetric matrix whose lower triangle G
    holds, as gram returns it; the strict upper triangle is not read (symv
    in G's precision).

    G is F-ordered, so BLAS takes it without a copy.
    """
    if G.dtype == np.float32:
        return ssymv(1.0, G, u, lower=1).astype(float)
    return dsymv(1.0, G, u, lower=1)


def exact_gram_product(k: KernelSpec, points: np.ndarray,
                       V: np.ndarray) -> np.ndarray:
    """K @ V in float64 for the Gram matrix K of the points, whatever
    precision gram stores it in; V is a vector or an (n, m) array.

    A feature map gives F (F' V).  A zonal kernel is evaluated one
    _lower_blocks strip K[lo:hi, lo:] at a time (at most PROFILE_BLOCK
    entries, or one row if a row is longer), which adds its rows into
    out[lo:hi] and, by symmetry, its columns past hi into out[hi:].  Every
    strip is formed in one buffer of that size, lent by the spare triangle
    where it can, so K is never stored.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    V = np.asarray(V, dtype=float)
    if not k.is_zonal:
        F = k.feature_map(points)
        return F @ (F.T @ V)
    n = len(points)
    out = np.zeros(V.shape)
    with _loan((max(PROFILE_BLOCK, n),)) as buffer:
        for lo, hi in _lower_blocks(n):
            strip = buffer[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
            np.matmul(points[lo:hi], points[lo:].T, out=strip)
            _apply_profile(k.profile, strip)
            out[lo:hi] += strip @ V[lo:]
            out[hi:] += strip[:, hi - lo:].T @ V[lo:hi]
    return out


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): a product of n factors 1 + d_i,
    |d_i| <= u, lies within gamma_n of 1, and a sum or inner product of n
    terms, in any order, is off by at most gamma_n times the sum of the
    terms' magnitudes (Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.1 and section 3.1)."""
    return n * u / (1.0 - n * u)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A, axis=1) bit for bit, its squares formed in a
    loan."""
    with _loan(A.shape) as squares:
        return np.sqrt(np.add.reduce(np.multiply(A, A, out=squares), axis=1))


def screens(k: KernelSpec, n_support: int) -> bool:
    """Whether test scores against n_support points are screened in
    float32: from F32_MIN_N points on, for a zonal kernel that carries
    Taylor coefficients and its profile's rounding."""
    return (n_support >= F32_MIN_N and k.is_zonal and k.taylor is not None
            and k.rounding is not None)


def screened_scores(k: KernelSpec, X: np.ndarray, support: np.ndarray,
                    alpha: np.ndarray) -> tuple:
    """(scores, bound): sum_j alpha_j k(x_i, s_j) for each row x_i of X,
    from float32 kernel entries, and a bound on each score's distance to
    the float64 one, cross_gram(k, X, support) @ alpha, whatever the block
    of rows that computes it.

    The support and X are cast to float32, and the entries of a block of
    test points are one sgemm, S32 X32', into one buffer that every block
    reuses, with the profile applied in place in float32; each SCREEN_CHUNK
    rows of that block give one float32 partial sum with the float32
    alpha, and the partial sums add in float64.  The casts, the block
    buffer and the squares behind the points' norms are formed in loans of
    the spare triangle.

    The bound.  Write t = <x, s>, K = kappa(clip(t)) and f = sum_j alpha_j
    K_j for exact arithmetic on the float64 inputs, and u = U32, v = U64,
    lam = TINY32, n support points in R^d, M = min(SCREEN_CHUNK, n) and c
    chunks.  With taylor c_k >= 0, kappa(1) = sum c_k bounds |kappa| and
    kappa'(1) = sum k c_k bounds |kappa'| on [-1, 1].
    - Entries.  Casting x and s to float32 and a float32 inner product give
      |t^ - t| <= gamma_{d+2} |x| |s| + d lam (one rounding each for x_l
      and s_l, gamma_d for the inner product, lam for each product that
      underflows).
      clip is 1-Lipschitz and kappa is kappa'(1)-Lipschitz on [-1, 1], and
      the profile adds its own rounding, so each entry is within
      eps_j = kappa'(1) (gamma_{d+2} |x| |s_j| + d lam) + rho u kappa(1)
      + lam of K_j, and |K^_j| <= Kbar = kappa(1) (1 + rho u) + lam.
      Weighted: sum_j |alpha_j| eps_j.
    - alpha in float32: sum_j |alpha^_j - alpha_j| |K^_j|
      <= Kbar sum |alpha^ - alpha|, the differences exact in float64.
    - Sums.  A chunk's float32 sum is within gamma_M sum |alpha^_j| Kbar +
      M lam of its exact value, and the float64 sum of the c partial sums
      adds gamma_c(v) times their magnitudes, each at most (1 + gamma_M)
      Kbar sum |alpha^_j| + M lam.
    The float64 path is off from f by the same terms with v in place of u:
    no cast (gamma_d(v) for the inner product), no rounding of alpha, and
    one sum of n terms, gamma_n(v) Kbar sum |alpha|.  The bound is the sum
    of both, times 1 + 2^-20 for the rounding of this formula and the
    Taylor tail cut below eps kappa(1) (kernels._truncated).  |x| and |s|
    are the norms of the float64 points, so the bound holds for points off
    the sphere too.  It assumes that the points, alpha and the partial sums
    lie inside float32's range, as on the sphere, where no entry exceeds
    kappa(1).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    support = np.atleast_2d(np.asarray(support, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    (n, d), M = support.shape, min(SCREEN_CHUNK, len(support))
    a32 = alpha.astype(np.float32)
    full = n - n % M  # the chunks of M points; a shorter one may follow
    chunked = a32[:full].reshape(-1, 1, M)
    scores = np.empty(len(X))
    # blocks of at most 2 PROFILE_BLOCK float32 entries, the bytes of a
    # float64 profile block; Kt's rows are the support points, so its
    # chunks are one C-ordered (chunks, M, rows) view
    rows = max(2 * PROFILE_BLOCK // n, 1)
    cast = (n + len(X)) * d
    with _loan((cast + n * min(rows, len(X)),), np.float32) as scratch:
        S32 = scratch[:n * d].reshape(n, d)
        X32 = scratch[n * d:cast].reshape(len(X), d)
        S32[...], X32[...] = support, X  # the casts of astype(np.float32)
        for lo in range(0, len(X), rows):
            hi = min(lo + rows, len(X))
            Kt = scratch[cast:cast + n * (hi - lo)].reshape(n, hi - lo)
            np.matmul(S32, X32[lo:hi].T, out=Kt)
            _apply_profile(k.profile, Kt)
            partial = np.matmul(chunked, Kt[:full].reshape(-1, M, hi - lo))
            out = partial.sum(axis=0, dtype=float)[0]
            if full < n:
                out += a32[full:] @ Kt[full:]
            scores[lo:hi] = out

    taylor = np.asarray(k.taylor, dtype=float)
    kappa, slope = float(taylor.sum()), float(np.arange(len(taylor)) @ taylor)
    rho, lam, chunks = float(k.rounding), TINY32, -(-n // M)
    total = float(np.abs(alpha).sum())
    total32 = float(np.abs(a32).sum(dtype=float))
    weighted = float(np.abs(alpha) @ _row_norms(support))
    norms = _row_norms(X)
    kbar = kappa * (1.0 + rho * U32) + lam
    sums = _gamma(M, U32)
    screen = (slope * _gamma(d + 2, U32) * weighted * norms
              + (slope * d * lam + rho * U32 * kappa + lam) * total
              + kbar * float(np.abs(a32 - alpha).sum())
              + (sums + _gamma(chunks, U64) * (1.0 + sums)) * kbar * total32
              + n * lam * (1.0 + _gamma(chunks, U64)))
    exact = (slope * _gamma(d, U64) * weighted * norms
             + (slope * d * lam + rho * U64 * kappa + lam) * total
             + _gamma(n, U64) * kbar * total)
    return scores, (screen + exact) * (1.0 + 2.0**-20)


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


# the shipped kernels and the parameters each reads
KERNEL_PARAMS = {"linear": (), "sss": (), "rbf": ("sigma",),
                 "poly": ("degree",)}


def standard_kernel(name: str, **params) -> KernelSpec:
    """Factory for the shipped zonal kernels, with their Taylor coefficients.
    Their profiles evaluate in place, in the operation order of the closed
    forms below, so their values are those of the closed forms bit for bit.

    linear: kappa(s) = s.
    sss:    kappa(s) = 1 / (2 - s) = sum_k s^k / 2^(k+1).
    rbf:    kappa(s) = exp((s - 1) / sigma^2)
                     = exp(-1/sigma^2) sum_k s^k / (sigma^(2k) k!).
    poly:   kappa(s) = ((1 + s) / 2)^degree = sum_k C(degree, k) s^k / 2^degree.

    Each carries its rounding rho (KernelSpec), derived in the precision of
    t, unit roundoff u <= U32, with IEEE operations correctly rounded, exp
    and power within L u = LIBM_ROUNDING u, and lam = TINY32 for an output
    that underflows.  kappa(1) = 1 for all but linear, and gamma_n(u) <=
    gamma_n(U32), so the U32 values hold in float64 too.
    linear: the profile is t itself: rho = 0.
    sss:    fl(1 / fl(2 - t)) = kappa(t) (1 + d2) / (1 + d1): within
            gamma_2 kappa(t) <= gamma_2 kappa(1).
    rbf:    z = (t - 1) / sigma^2 takes four roundings (the subtraction,
            sigma^2 in float64 and cast to t's precision, the division),
            so |z^ - z| <= g |z|, g = gamma_4, and |exp(z^) (1 + dL) - e^z|
            <= e^z (e^{g|z|} - 1) (1 + L u) + L u e^z, for z <= 0.  With
            w = |z|, e^-w (e^{gw} - 1) <= g w e^{-(1-g) w} <= g / (e (1-g)),
            so rho = (g / (e (1 - g)) (1 + L u) + L u) / u, about 4/e + L.
    poly:   fl(1 + t) = (1 + t)(1 + d1), the halving is exact, and power
            adds L u: kappa(t) ((1 + u)^degree (1 + L u) - 1) <= kappa(1)
            gamma_{degree + L}, so rho = gamma_{degree + L} / u.

    A parameter that the named kernel does not read raises KernelError.
    """
    if name not in KERNEL_PARAMS:
        raise KernelError(f"unknown kernel {name!r}")
    unknown = sorted(set(params) - set(KERNEL_PARAMS[name]))
    if unknown:
        raise KernelError(f"kernel {name!r} takes no parameter "
                          f"{', '.join(map(repr, unknown))}")
    L = LIBM_ROUNDING
    if name == "linear":
        return KernelSpec(name="linear", profile=_linear,
                          taylor=np.array([0.0, 1.0]), rounding=0.0)
    if name == "sss":
        return KernelSpec(name="sss", profile=_sss,
                          taylor=_truncated(0.5 ** np.arange(1, 65)),
                          rounding=_gamma(2, U32) / U32)
    if name == "rbf":
        sigma = float(params.get("sigma", 1.0))
        lam = sigma**-2
        # c_k is e^-lam times a Poisson(lam) weight: past lam + 12 sqrt(lam)
        # + 40 terms the tail is far below machine epsilon
        k = np.arange(int(lam + 12.0 * math.sqrt(lam)) + 40)
        square = sigma**2

        def rbf(s):
            np.subtract(s, 1.0, out=s)
            if square != 1.0:  # dividing by 1 changes no bit
                np.divide(s, square, out=s)
            return np.exp(s, out=s)

        g = _gamma(4, U32)
        return KernelSpec(
            name="rbf", profile=rbf,
            taylor=_truncated(np.exp(k * math.log(lam) - lam - gammaln(k + 1))),
            params={"sigma": sigma},
            rounding=(g / (math.e * (1.0 - g)) * (1.0 + L * U32)
                      + L * U32) / U32,
        )
    degree = int(params.get("degree", 3))  # poly

    def poly(s):
        np.add(1.0, s, out=s)
        np.divide(s, 2.0, out=s)
        return np.power(s, degree, out=s)

    return KernelSpec(
        name="poly", profile=poly,
        taylor=np.array([math.comb(degree, k) / 2.0**degree
                         for k in range(degree + 1)]),
        params={"degree": degree},
        rounding=_gamma(degree + L, U32) / U32,
    )
