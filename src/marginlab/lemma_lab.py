"""Band-difference verification for zonal expansions and trained models, and
Monte-Carlo symmetrization of a function around a direction.

The band-difference estimate says the band averages of a norm-bounded RKHS
function at heights +/-gamma differ by at most
32 gamma K^3.5 ||f||_{1,mu_e} + (32 gamma K^3.5 + 2) C tail(K, d).
For zonal coefficient vectors the check is exact quadrature; for trained
kernel models both sides are estimated by Monte Carlo over bands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .learners import KernelModel
from .orthopoly import (
    PolyCoeffs,
    TailConstants,
    changes_slowly_gap,
    gauss_chebyshev_nodes,
    legendre_tail_bound,
)
from .sphere import RngStream, haar_orthogonal, sample_band

GAP_SLACK_SIGMAS = 4.0


class GapViolationError(AssertionError):
    pass


@dataclass
class BandReport:
    f_bar_plus: float
    f_bar_minus: float
    gap: float
    bound: float
    std_errs: tuple

    def to_json(self) -> str:
        return json.dumps(
            {
                "f_bar_plus": self.f_bar_plus,
                "f_bar_minus": self.f_bar_minus,
                "gap": self.gap,
                "bound": self.bound,
                "std_errs": list(self.std_errs),
            },
            sort_keys=True,
        )


def check_band_gap(model, e, gamma: float, K: int, n_mc: int = 512,
                   rng: RngStream | None = None,
                   consts: TailConstants = TailConstants()) -> BandReport:
    """Band averages of the model at heights +/-gamma versus the analytic bound.

    Raises GapViolationError when the measured gap exceeds the bound by more
    than 4 combined standard errors.
    """
    if isinstance(model, PolyCoeffs):
        gap, bound = changes_slowly_gap(model, gamma, K, consts)
        fp = float(model(gamma))
        fm = float(model(-gamma))
        report = BandReport(fp, fm, gap, bound, (0.0, 0.0))
    elif isinstance(model, KernelModel):
        if rng is None:
            rng = RngStream(0, 0)
        e = np.asarray(e, dtype=float)
        d = model.support.shape[1]

        def batch_mean(a, n):
            X = sample_band(e, np.full(n, a), rng)
            vals = model.decision_function(X) - model.b
            return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))

        fp, se_p = batch_mean(gamma, n_mc)
        fm, se_m = batch_mean(-gamma, n_mc)
        # L1 norm of the band-average profile against the arcsine measure
        nodes, wts = gauss_chebyshev_nodes(32)
        inner = max(n_mc // 32, 8)
        l1 = 0.0
        for t, w in zip(nodes, wts):
            mean_t, _ = batch_mean(float(t), inner)
            l1 += w * abs(mean_t)
        C = model.norm
        lead = 32.0 * gamma * K**3.5
        bound = float(lead * l1
                      + (lead + 2.0) * C * legendre_tail_bound(K, d, consts))
        gap = abs(fp - fm)
        report = BandReport(fp, fm, gap, bound, (se_p, se_m))
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    if report.gap > report.bound + GAP_SLACK_SIGMAS * sum(report.std_errs):
        raise GapViolationError(
            f"band gap {report.gap:.6g} exceeds bound {report.bound:.6g} "
            f"(+{GAP_SLACK_SIGMAS} sigma slack)"
        )
    return report


def stabilizer_rotation(e: np.ndarray, rng: RngStream) -> np.ndarray:
    """Haar-random rotation of S^{d-1} fixing e, lifted through a Householder
    completion of e."""
    e = np.asarray(e, dtype=float)
    d = len(e)
    first = np.zeros(d)
    first[0] = 1.0
    v = e - first
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        Q = np.eye(d)
    else:
        v = v / nv
        Q = np.eye(d) - 2.0 * np.outer(v, v)
    inner = np.eye(d)
    inner[1:, 1:] = haar_orthogonal(d - 1, rng)
    return Q @ inner @ Q.T


@dataclass
class SymmetrizedFunction:
    """Tabulated band-average estimate g(a) of a function around e."""

    e: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    std_errs: np.ndarray

    def __call__(self, a):
        return np.interp(a, self.grid, self.values)


def symmetrize_function(model, e, n_rotations: int = 64,
                        rng: RngStream | None = None,
                        grid: np.ndarray | None = None) -> SymmetrizedFunction:
    """Monte-Carlo estimate of the rotation average of the model around e.

    Averages f(A x_a) over Haar rotations A fixing e, at one representative
    point x_a per grid height a.  Works for any object exposing
    decision_function; plain callables are wrapped.
    """
    if n_rotations < 16:
        raise ValueError("need at least 16 rotations")
    if rng is None:
        rng = RngStream(0, 0)
    e = np.asarray(e, dtype=float)
    d = len(e)
    if grid is None:
        grid = np.linspace(-1.0, 1.0, 65)
    fn = model.decision_function if hasattr(model, "decision_function") else model

    # representative point per height, fixed across rotations
    reps = []
    for a in grid:
        if abs(a) >= 1.0:
            reps.append(math.copysign(1.0, a) * e)
        else:
            reps.append(sample_band(e, float(a), rng))
    reps = np.array(reps)

    samples = np.empty((n_rotations, len(grid)))
    for r in range(n_rotations):
        A = stabilizer_rotation(e, rng)
        pts = reps @ A.T
        out = np.asarray(fn(pts), dtype=float)
        if out.shape != (len(grid),):
            out = np.array([float(fn(p)) for p in pts])
        samples[r] = out
    values = samples.mean(axis=0)
    std_errs = samples.std(axis=0, ddof=1) / math.sqrt(n_rotations)
    return SymmetrizedFunction(e, np.asarray(grid, float), values, std_errs)
