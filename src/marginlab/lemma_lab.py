"""Band-difference verification for zonal expansions and trained models.

The band-difference estimate says the band averages of a norm-bounded RKHS
function at heights +/-gamma differ by at most
32 gamma K^3.5 ||f||_{1,mu_e} + (32 gamma K^3.5 + 2) C tail(K, d).
For zonal coefficient vectors the check is exact quadrature.  For a trained
kernel model the band average is exact too: by Funk-Hecke, averaging
k(x_i, x) = sum_n b_n P_{d,n}(<x_i, x>) over the band <x, e> = a gives
sum_n b_n P_{d,n}(<x_i, e>) P_{d,n}(a), so the band-average profile is the
zonal series with coefficients b_n sum_i alpha_i P_{d,n}(<x_i, e>), with b_n
the kernel's exact Legendre expansion (kernels.RkhsProfile.from_kernel).

For trained models this is a consistency check, not a test that can bite:
at d = 25 the tail term alone is (32 gamma K^3.5 + 2) C 12 s^23 >= 0.86 C
(about 17 at C = 20).  On the acceptance-1 configs (seed 0) the dual
solver's models have gaps of 0.100 (linear), 0.129 (sss), 0.195 (rbf) and
0.187 (poly-3) against bounds of 171, 1798, 1802 and 1802.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import RkhsProfile
from .learners import KernelModel
from .orthopoly import (
    PolyCoeffs,
    TailConstants,
    arcsine_norm,
    changes_slowly_gap,
    legendre_table,
    legendre_tail_bound,
)


class GapViolationError(AssertionError):
    pass


@dataclass
class BandReport:
    f_bar_plus: float
    f_bar_minus: float
    gap: float
    bound: float


def _band_average(model: KernelModel, e) -> PolyCoeffs:
    """The band-average profile a -> E[f(x) - b | <x, e> = a] of a zonal
    kernel model, as an exact zonal series.

    The Legendre table here is (terms x n_train), one row per Taylor term of
    the kernel, up to orthopoly.MAX_DEGREE + 1: rbf sigma = 0.02 has 2918
    terms, a 93 MB table at n_train = 4000.
    """
    d = model.support.shape[1]
    b = RkhsProfile.from_kernel(model.kernel, d).b
    table = legendre_table(d, len(b) - 1, model.support @ np.asarray(e, float))
    return PolyCoeffs(d, b * (table @ model.alpha))


def check_band_gap(model, e, gamma: float, K: int,
                   consts: TailConstants = TailConstants()) -> BandReport:
    """Band averages of the model at heights +/-gamma versus the analytic bound.

    Raises GapViolationError when the gap exceeds the bound.
    """
    if isinstance(model, PolyCoeffs):
        gap, bound = changes_slowly_gap(model, gamma, K, consts)
        report = BandReport(float(model(gamma)), float(model(-gamma)), gap,
                            bound)
    elif isinstance(model, KernelModel):
        f_bar = _band_average(model, e)
        fp, fm = float(f_bar(gamma)), float(f_bar(-gamma))
        lead = 32.0 * gamma * K**3.5
        bound = float(lead * arcsine_norm(f_bar)
                      + (lead + 2.0) * model.norm
                      * legendre_tail_bound(K, f_bar.d, consts))
        report = BandReport(fp, fm, abs(fp - fm), bound)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    if report.gap > report.bound:
        raise GapViolationError(
            f"band gap {report.gap:.6g} exceeds bound {report.bound:.6g}")
    return report
