"""Band-difference verification for zonal expansions and trained models.

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
from .sphere import RngStream, sample_band

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

