"""Minimum-volume enclosing ellipsoids, convex decomposition over point hulls,
and the finitely supported noise measure they induce for feature-map learners.

The MVEE solver is one Khachiyan barycentric coordinate ascent with
Todd-Yildirim away steps, run on the points themselves in the symmetric case
and on the points lifted to (p, 1) in the general case.  It carries V^-1 and
the leverages through rank-one (Sherman-Morrison) updates and stops only on
leverages recomputed exactly from the weights.  In the symmetric case the
ellipsoid is centered at the origin and the shrunk copy E / sqrt(m (1+eps))
lies inside the convex hull of the points and their negatives, which is what
makes the basis-vector decompositions below feasible.
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

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            d = len(self.atoms[0][0])
            writer.writerow([f"x{i}" for i in range(d)] + ["label", "weight"])
            for p, y, w in self.atoms:
                writer.writerow([repr(float(v)) for v in p] + [y, repr(float(w))])

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
        return Ellipsoid(np.zeros(m), np.linalg.inv((P.T * u) @ P) / m)
    c = P.T @ u
    V = (P.T * u) @ P - np.outer(c, c)
    # lifted termination gives (p-c)' V^-1 (p-c) <= m + eps (m+1); fold the
    # overshoot into the shape so containment holds within eps
    return Ellipsoid(c, np.linalg.inv(V) / (m + eps * (m + 1)))


def _caratheodory_prune(weights: np.ndarray, points: np.ndarray, m: int):
    """Reduce the support of an exact convex combination to <= m+1 atoms by
    walking along null directions of the lifted point matrix."""
    w = weights.copy()
    while True:
        support = np.nonzero(w > WEIGHT_TOL)[0]
        if len(support) <= m + 1:
            break
        Q = np.vstack([points[support].T, np.ones(len(support))])
        _, s, vt = np.linalg.svd(Q)
        null = vt[-1]
        pos = null > 1e-14
        if not np.any(pos):
            null = -null
            pos = null > 1e-14
        tau = np.min(w[support][pos] / null[pos])
        w[support] = np.maximum(w[support] - tau * null, 0.0)
        total = w.sum()
        if total <= 0:
            raise InfeasibleError("pruning collapsed the decomposition")
        w /= total
    w[w <= WEIGHT_TOL] = 0.0
    return w / w.sum()


def convex_decompose(target, points, tol: float = DECOMP_TOL,
                     max_iters: int = 5000) -> np.ndarray:
    """Weights lambda >= 0, sum 1, with || sum lambda_j p_j - target || <= tol
    and at most m+1 nonzero entries.

    Frank-Wolfe on the squared residual locates the active vertices; because
    plain Frank-Wolfe stalls sublinearly, the active set is then polished with
    a nonnegative least-squares solve before Caratheodory pruning.
    """
    t = np.asarray(target, dtype=float)
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = P.shape
    lam = np.zeros(n)
    lam[int(np.argmin(P @ -t))] = 1.0  # best single vertex for <p, t>
    for _ in range(max_iters):
        r = P.T @ lam - t
        if np.linalg.norm(r) <= tol:
            break
        j = int(np.argmin(P @ r))
        d = P[j] - P.T @ lam
        denom = float(d @ d)
        if denom <= 0:
            break
        step = float(np.clip(-(r @ d) / denom, 0.0, 1.0))
        if step <= 0:
            break
        lam *= 1.0 - step
        lam[j] += step

    if np.linalg.norm(P.T @ lam - t) > tol:
        # polish: equality-weighted NNLS over the simplex, first on the
        # Frank-Wolfe active set, then over all vertices if needed
        rho = 1e6
        for cols in (np.nonzero(lam > 1e-12)[0], np.arange(n)):
            A = np.vstack([P[cols].T, rho * np.ones(len(cols))])
            b = np.append(t, rho)
            sol, _ = nnls(A, b)
            cand = np.zeros(n)
            cand[cols] = sol
            s = cand.sum()
            if s > 0:
                cand /= s
            if np.linalg.norm(P.T @ cand - t) <= tol:
                lam = cand
                break
        else:
            raise InfeasibleError(
                f"residual {np.linalg.norm(P.T @ lam - t):.3e} > tol {tol:.1e}: "
                "target outside the convex hull"
            )
    return _caratheodory_prune(lam, P, m)


def build_noise_measure(psi, probe_points, m: int, eps: float = MVEE_EPS,
                        rng: RngStream | None = None):
    """John-ellipsoid noise measure for a feature map psi into R^m.

    Returns (inner_product, mu_N): the John shape matrix of the symmetric hull
    of the probe images, and a probability measure on labeled probe points
    whose atoms decompose each John-orthonormal basis direction scaled by
    1/sqrt(m (1+eps)).  Certifies on 100 random John-norm-1 linear functionals
    that the hinge error under mu_N is at least 1/(2 m^1.5) - 1e-9.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_points]
    images = np.array([np.asarray(psi(p), dtype=float).ravel() for p in probes])
    if images.shape[1] != m:
        raise GeometryError(f"feature map has dimension {images.shape[1]}, expected {m}")

    ell = mvee(images, symmetric=True, eps=eps)
    M = ell.shape
    L = np.linalg.cholesky(M)
    basis = np.linalg.inv(L).T  # columns e_i with e_i' M e_j = delta_ij

    signed = np.vstack([images, -images])
    shrink = math.sqrt(m * (1.0 + eps))
    merged = {}
    for i in range(m):
        lam = convex_decompose(basis[:, i] / shrink, signed)
        for j in np.nonzero(lam)[0]:
            # the signed vertex +/-psi(x) contributes the point x with both
            # labels, weight lambda/(2m) each
            probe_idx = j % len(images)
            w = lam[j] / (2.0 * m)
            for y in (1, -1):
                key = (probe_idx, y)
                merged[key] = merged.get(key, 0.0) + w
    atoms = [(probes[idx], y, w) for (idx, y), w in sorted(merged.items())]
    mu_N = WeightedAtomMeasure(atoms)

    # certificate on random norm-1 functionals
    Minv = np.linalg.inv(M)
    gen = rng if rng is not None else RngStream(0, 0)
    floor = 1.0 / (2.0 * m**1.5) - 1e-9
    for _ in range(100):
        w_vec = gen.gen.standard_normal(m)
        w_vec /= math.sqrt(float(w_vec @ Minv @ w_vec))
        err = 0.0
        for p, y, wt in mu_N.atoms:
            score = y * float(np.asarray(psi(p), dtype=float).ravel() @ w_vec)
            err += wt * max(1.0 - score, 0.0)
        if err < floor:
            raise GeometryError(
                f"noise-measure certificate failed: hinge error {err:.3e} "
                f"< {floor:.3e}"
            )
    return M, mu_N


def default_probes(d: int, m: int, rng: RngStream, extra=None):
    """50*m Haar-uniform sphere probes plus caller-provided candidates."""
    pts = [sample_unit_sphere(d, rng) for _ in range(50 * m)]
    if extra is not None:
        pts.extend(np.asarray(p, dtype=float) for p in extra)
    return pts
