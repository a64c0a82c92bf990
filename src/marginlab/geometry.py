"""Minimum-volume enclosing ellipsoids, convex decomposition over point hulls,
and the finitely supported noise measure they induce for feature-map learners.

The MVEE weights are found by one spectral projected-gradient ascent on the
D-optimal design problem, max log det(Q' diag(u) Q) over the simplex, with
Q the points themselves in the symmetric case and the points lifted to
(p, 1) in the general case.  Each iteration is one Cholesky factorization
and one triangular inverse, called in LAPACK directly (dpotrf, dtrtri) to
skip numpy.linalg's per-call overhead, and two n x dim x dim products,
vectorized over the points; the loop stops only on leverages
q_i' V(u)^-1 q_i computed from the accepted weights.
That test alone gives containment within eps, and in the symmetric case,
where the ellipsoid is centered at the origin, it puts the shrunk copy
E / sqrt(m (1+eps)) inside the convex hull of the points and their
negatives, which is what makes the basis-vector decompositions below
feasible.  Each decomposition is one nonnegative least-squares solve; the
noise measure built from them is certified by the mean-absolute-score lower
bound it supplies to the feature-map lower bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.optimize import nnls

from .learners import SPG_ARMIJO, SPG_BACKTRACKS, SPG_MEMORY
from .sphere import RngStream, sample_unit_spheres

MVEE_EPS = 1e-3
# Cholesky evaluations of the design ascent, line-search trials included.
# The most measured: 161 over 60 000 examples of the property test's random
# inputs (m <= 8, up to 20 dim points, axis scales up to 10^+-2), 98 for the
# lemma_checks benchmark's mvee inputs (m = 10, 20, 30, 20 m unit points)
# and 165 for its noise measures (m = 8, 400 probes), seeds 0-39.  The ascent
# is affine invariant, so badly scaled inputs take no more.  2000 leaves
# >10x room and stops a loop that does not converge within about 0.3 s at
# m = 30 with 600 points (135-155 us per evaluation, line search included,
# on a 2-vCPU Xeon).
MVEE_MAX_ITERS = 2000
DECOMP_TOL = 1e-9
WEIGHT_TOL = 1e-12


class GeometryError(ValueError):
    pass


class RankDeficiencyError(GeometryError):
    def __init__(self, rank: int, ambient: int):
        super().__init__(
            f"points span a subspace of dimension {rank} inside R^{ambient}"
        )
        self.rank = rank
        self.ambient = ambient


class InfeasibleError(GeometryError):
    pass


@dataclass
class Ellipsoid:
    """The set {x : (x - center)' shape (x - center) <= 1}."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.shape = np.asarray(self.shape, dtype=float)
        if not np.allclose(self.shape, self.shape.T, atol=1e-10):
            raise GeometryError("shape matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(self.shape) <= 0):
            raise GeometryError("shape matrix must be positive definite")

    def quad(self, points: np.ndarray) -> np.ndarray:
        diff = np.atleast_2d(points) - self.center
        return np.einsum("ij,jk,ik->i", diff, self.shape, diff)


@dataclass
class WeightedAtomMeasure:
    """Finitely supported probability measure on labeled points."""

    atoms: list  # (point, label, weight) triples

    def __post_init__(self):
        cleaned = []
        total = 0.0
        for p, y, w in self.atoms:
            if w < -WEIGHT_TOL:
                raise GeometryError("atom weights must be nonnegative")
            if int(y) not in (-1, 1):
                raise GeometryError("labels must be +/-1")
            cleaned.append((np.asarray(p, dtype=float), int(y), float(w)))
            total += w
        if abs(total - 1.0) > 1e-6:
            raise GeometryError(f"weights sum to {total}, expected 1")
        self.atoms = cleaned


def _simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex: v shifted by
    the one theta that leaves sum(max(v - theta, 0)) = 1, found by sorting."""
    s = np.sort(v)[::-1]
    tail = (np.cumsum(s) - 1.0) / np.arange(1, len(v) + 1)
    theta = tail[np.count_nonzero(s > tail) - 1]
    return np.maximum(v - theta, 0.0)


def _design(QT: np.ndarray, u: np.ndarray):
    """(log det V, leverages w_i = q_i' V^-1 q_i) for V = Q' diag(u) Q, from
    QT = Q' in C order, or None where V is not numerically positive
    definite.  With V = L L', w_i = |L^-1 q_i|^2, and w is the gradient of
    log det V in u.

    L comes from LAPACK dpotrf and L^-1 from dtrtri, called directly: at the
    dims the ascent runs (2-31), numpy.linalg's cholesky wrapper costs 4-7
    us against 0.7-3.4 us for dpotrf, and its inv, an LU solve, 4-30 us
    against 0.6-5 us for dtrtri (one core of a 2-vCPU Xeon).  dpotrf's info > 0 marks
    a pivot <= 0; OpenBLAS passes a NaN pivot with info = 0, which shows as
    a NaN log det."""
    L, info = dpotrf((QT * u) @ QT.T, lower=1, clean=1)
    if info > 0:
        return None
    f = 2.0 * float(np.log(L.diagonal()).sum())
    if math.isnan(f):
        return None
    B = dtrtri(L, lower=1)[0] @ QT
    B *= B
    return f, B.sum(axis=0)


def _design_weights(Q: np.ndarray, eps: float) -> np.ndarray:
    """Barycentric weights u with max_i q_i' V(u)^-1 q_i <= (1+eps) dim.

    Non-monotone spectral projected-gradient ascent (Birgin, Martinez and
    Raydan) on the D-optimal design problem, max log det V(u) over the
    simplex, whose gradient is the leverage vector w.  The iterate moves
    along d = P(u + lam w) - u, P the simplex projection.  The line search
    halves the step until log det rises above the best of the last
    SPG_MEMORY values by SPG_ARMIJO times the step's first-order ascent; a
    trial point whose Cholesky fails is rejected.  lam is the
    Barzilai-Borwein step s's / -s'y of the last move, kept where s'y >= 0,
    which concavity allows only for a move that leaves V unchanged; the
    first lam, 1 / (n dim), makes the first step the multiplicative update
    u_i w_i / dim.  The stopping test reads leverages computed from the
    accepted u alone, so nothing carried between steps can end the loop
    early.  A direction with no first-order ascent, a line search that
    fails SPG_BACKTRACKS halvings and an evaluation past MVEE_MAX_ITERS
    each raise GeometryError.  In the symmetric dim = 1 case, all weight on
    the longest point is exact.
    """
    n, dim = Q.shape
    if dim == 1:
        u = np.zeros(n)
        u[np.abs(Q[:, 0]).argmax()] = 1.0
        return u
    bound = (1.0 + eps) * dim
    # log det V moves by a constant and the leverages not at all under
    # Q -> Q A, so the ascent runs on an orthonormal basis of Q's columns,
    # where V = I / n at the start however badly Q is scaled
    QT = np.ascontiguousarray(np.linalg.qr(Q)[0].T)
    u = np.full(n, 1.0 / n)
    f, w = _design(QT, u)
    lam = 1.0 / (n * dim)
    history = deque([f], maxlen=SPG_MEMORY)
    evals = 1
    while w.max() > bound:
        d = _simplex_projection(u + lam * w) - u
        ascent = float(w.dot(d))
        if not ascent > 0.0:
            raise GeometryError("MVEE step direction does not ascend")
        reference = max(history)
        t = 1.0
        for _ in range(SPG_BACKTRACKS):
            if evals >= MVEE_MAX_ITERS:
                raise GeometryError("MVEE iteration cap exceeded")
            evals += 1
            u_t = u + t * d
            trial = _design(QT, u_t)
            if (trial is not None
                    and trial[0] >= reference + SPG_ARMIJO * t * ascent):
                break
            t *= 0.5
        else:
            raise GeometryError("MVEE line search found no ascent in "
                                f"{SPG_BACKTRACKS} halvings")
        f, w_t = trial
        s = u_t - u
        sy = float(s.dot(w_t - w))
        if sy < 0.0:
            lam = float(s.dot(s)) / -sy
        u, w = u_t, w_t
        history.append(f)
    return u


def mvee(points, symmetric: bool = False, eps: float = MVEE_EPS) -> Ellipsoid:
    """Approximate minimum-volume enclosing ellipsoid of a finite point set.

    Every input point p satisfies (p - c)' M (p - c) <= 1 + eps.  With
    symmetric=True the center is pinned at 0 and the point set is implicitly
    {+/-p}.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = P.shape
    if not 0.0 < eps <= 0.1:
        raise GeometryError(f"eps must be in (0, 0.1], got {eps}")
    # the general case lifts to homogeneous coordinates: the symmetric MVEE
    # of the points (p, 1) in R^(m+1) cut by the plane x_(m+1) = 1
    Q = P if symmetric else np.hstack([P, np.ones((n, 1))])
    rank = np.linalg.matrix_rank(Q)
    if rank < Q.shape[1]:
        raise RankDeficiencyError(rank if symmetric else rank - 1, m)
    u = _design_weights(Q, eps)
    if symmetric:
        c = np.zeros(m)
        V, scale = (P.T * u) @ P, m
    else:
        c = P.T @ u
        V = (P.T * u) @ P - np.outer(c, c)
        # lifted termination gives (p-c)' V^-1 (p-c) <= m + eps (m+1); fold
        # the overshoot into the shape so containment holds within eps
        scale = m + eps * (m + 1)
    try:
        S = np.linalg.inv(V) / scale
    except np.linalg.LinAlgError as exc:
        # weights found on the orthonormal basis can still give a shape
        # that is singular in floating point on badly scaled points
        raise GeometryError(f"MVEE shape matrix is singular: {exc}") from exc
    # on badly scaled points the inverse is symmetric only up to rounding
    # amplified by the condition number
    return Ellipsoid(c, (S + S.T) / 2.0)


def convex_decompose(target, points) -> np.ndarray:
    """Weights lambda >= 0, sum 1, with || sum lambda_j p_j - target || <=
    DECOMP_TOL and at most m+1 nonzero entries.

    One Lawson-Hanson NNLS solve of [P'; 1'] lambda = (target, 1).  Its
    passive set stays linearly independent, so the solution is already a
    Caratheodory basis; the support bound is checked, not assumed.
    """
    t = np.asarray(target, dtype=float)
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = P.shape
    lam, _ = nnls(np.vstack([P.T, np.ones(n)]), np.append(t, 1.0))
    lam[lam <= WEIGHT_TOL] = 0.0
    total = lam.sum()
    if total <= 0.0:
        raise InfeasibleError("no nonnegative weights: target outside the "
                              "convex hull")
    lam /= total
    resid = float(np.linalg.norm(P.T @ lam - t))
    if resid > DECOMP_TOL:
        raise InfeasibleError(
            f"residual {resid:.3e} > tol {DECOMP_TOL:.1e}: "
            "target outside the convex hull"
        )
    support = np.count_nonzero(lam)
    if support > m + 1:
        raise GeometryError(f"decomposition has {support} atoms in R^{m}, "
                            f"more than {m + 1}")
    return lam


def build_noise_measure(psi, probe_points, m: int, eps: float = MVEE_EPS,
                        rng: RngStream | None = None):
    """John-ellipsoid noise measure for a feature map psi into R^m.

    Returns (inner_product, mu_N): the John shape matrix M of the symmetric
    hull of the probe images, and a probability measure on labeled probe
    points.  Each John-orthonormal direction e_i (e_i' M e_j = delta_ij),
    shrunk by 1/sqrt(m (1+eps)), is decomposed over the signed images
    +/-psi(x); the probe x gets mass lambda/(2m) with each label.  By the
    triangle inequality over each decomposition, for every functional w,

        E_mu |<w, psi(x)>| >= sum_i |<w, e_i>| / (m sqrt(m (1+eps))),

    which is at least the bound ||w||_{M^-1} / (m sqrt(m (1+eps))) the noise
    measure supplies.  The first bound is certified on 100 random
    functionals drawn from rng, with a slack of DECOMP_TOL ||w||_2 for the
    decomposition residuals; GeometryError if any falls short.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    images = np.array([np.asarray(psi(p), dtype=float).ravel() for p in probes])
    if images.shape[1] != m:
        raise GeometryError(f"feature map has dimension {images.shape[1]}, expected {m}")

    ell = mvee(images, symmetric=True, eps=eps)
    M = ell.shape
    try:
        basis = np.linalg.inv(np.linalg.cholesky(M)).T  # columns e_i
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"John shape matrix has no Cholesky factor: "
                            f"{exc}") from exc

    n = len(images)
    signed = np.vstack([images, -images])
    shrink = math.sqrt(m * (1.0 + eps))
    mass = np.zeros(n)  # per probe and label
    for i in range(m):
        lam = convex_decompose(basis[:, i] / shrink, signed)
        mass += (lam[:n] + lam[n:]) / (2.0 * m)
    support = np.nonzero(mass)[0]
    mu_N = WeightedAtomMeasure([(probes[j], y, mass[j])
                                for j in support for y in (-1, 1)])

    gen = rng if rng is not None else RngStream(0, 0)
    W = gen.gen.standard_normal((100, m))
    measured = 2.0 * mass[support] @ np.abs(images[support] @ W.T)
    floor = (np.abs(W @ basis).sum(axis=1) / (m * shrink)
             - DECOMP_TOL * np.linalg.norm(W, axis=1))
    if np.any(measured < floor):
        k = int(np.argmin(measured - floor))
        raise GeometryError(
            f"noise-measure certificate failed: E|<w, psi>| {measured[k]:.3e} "
            f"< {floor[k]:.3e}"
        )
    return M, mu_N


def default_probes(d: int, m: int, rng: RngStream, extra=None):
    """50*m Haar-uniform sphere probes plus caller-provided candidates."""
    pts = list(sample_unit_spheres(d, 50 * m, rng))
    if extra is not None:
        pts.extend(np.asarray(p, dtype=float) for p in extra)
    return pts
