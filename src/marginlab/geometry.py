"""Minimum-volume enclosing ellipsoids, convex decomposition over point hulls,
and the finitely supported noise measure they induce for feature-map learners.

The MVEE solver is one Khachiyan barycentric coordinate ascent with
Todd-Yildirim away steps, run on the points themselves in the symmetric case
and on the points lifted to (p, 1) in the general case.  It carries V^-1 and
the leverages through rank-one (Sherman-Morrison) updates and stops only on
leverages recomputed exactly from the weights.  In the symmetric case the
ellipsoid is centered at the origin and the shrunk copy E / sqrt(m (1+eps))
lies inside the convex hull of the points and their negatives, which is what
makes the basis-vector decompositions below feasible.  Each decomposition is
one nonnegative least-squares solve; the noise measure built from them is
certified by the mean-absolute-score lower bound it supplies to the
feature-map lower bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .sphere import RngStream, sample_unit_sphere

MVEE_EPS = 1e-3
MVEE_MAX_ITERS = 100_000
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

    @classmethod
    def from_csv(cls, path: str) -> "WeightedAtomMeasure":
        atoms = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                atoms.append(
                    (np.array([float(v) for v in row[:-2]]),
                     int(row[-2]), float(row[-1]))
                )
        return cls(atoms)


def _exact_state(Q: np.ndarray, u: np.ndarray):
    """V^-1 and the leverages w_i = q_i' V^-1 q_i for V = Q' diag(u) Q."""
    Vinv = np.linalg.inv((Q.T * u) @ Q)
    return Vinv, np.einsum("ij,jk,ik->i", Q, Vinv, Q)


def _khachiyan(Q: np.ndarray, eps: float) -> np.ndarray:
    """Barycentric weights u with max_i q_i' V(u)^-1 q_i <= (1+eps) dim.

    Khachiyan's coordinate ascent with Todd-Yildirim away steps.  V^-1 and
    the leverages are carried through Sherman-Morrison updates, O(n dim) per
    step; the stopping test recomputes both exactly from u, so rounding drift
    in the carried state cannot end the loop early.
    """
    n, dim = Q.shape
    u = np.full(n, 1.0 / n)
    Vinv, w = _exact_state(Q, u)
    bound = (1.0 + eps) * dim
    for _ in range(MVEE_MAX_ITERS):
        j = int(np.argmax(w))
        if w[j] <= bound:
            Vinv, w = _exact_state(Q, u)
            if np.max(w) <= bound:
                return u
            continue
        k = int(np.argmin(np.where(u > 0.0, w, np.inf)))
        if dim - w[k] > w[j] - dim:
            # away step: shift weight off the support point with the
            # smallest leverage, at most down to zero (a drop step)
            i = k
            floor = -u[k] / (1.0 - u[k])
            tau = floor
            if w[k] > 1.0:
                tau = max((w[k] - dim) / (dim * (w[k] - 1.0)), floor)
            drop = tau == floor
        else:
            i, drop = j, False
            tau = (w[j] - dim) / (dim * (w[j] - 1.0))
            if tau >= 1.0:  # dim = 1: all weight on the longest point
                u = np.zeros(n)
                u[j] = 1.0
                Vinv, w = _exact_state(Q, u)
                continue
        g = Vinv @ Q[i]
        h = Q @ g
        c = tau / ((1.0 - tau) + tau * w[i])
        Vinv = (Vinv - c * np.outer(g, g)) / (1.0 - tau)
        w = (w - c * h * h) / (1.0 - tau)
        u *= 1.0 - tau
        u[i] += tau
        if drop:
            u[i] = 0.0
    raise GeometryError("MVEE iteration cap exceeded")


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
    u = _khachiyan(Q, eps)
    if symmetric:
        c = np.zeros(m)
        S = np.linalg.inv((P.T * u) @ P) / m
    else:
        c = P.T @ u
        V = (P.T * u) @ P - np.outer(c, c)
        # lifted termination gives (p-c)' V^-1 (p-c) <= m + eps (m+1); fold
        # the overshoot into the shape so containment holds within eps
        S = np.linalg.inv(V) / (m + eps * (m + 1))
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
    basis = np.linalg.inv(np.linalg.cholesky(M)).T  # columns e_i

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
    pts = [sample_unit_sphere(d, rng) for _ in range(50 * m)]
    if extra is not None:
        pts.extend(np.asarray(p, dtype=float) for p in extra)
    return pts
