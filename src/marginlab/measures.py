"""Hard one-dimensional mixture measures and their pullbacks to S^{d-1}.

The mixture has three roles: a clean two-atom pair at +/-gamma (majority
weight theta on the positive atom), a flipped atom at (-gamma, +1), and an
arcsine noise band on [-1/8, 1/8] with uniform labels.  The pullback
lifts the 1-D coordinate t to x = t e + sqrt(1-t^2) z with z uniform on the
sphere orthogonal to the direction e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import BAND_HALF_WIDTH
from .sphere import RngStream, sample_band


class SpecError(ValueError):
    pass


@dataclass
class AdversarialSpec:
    """Full recipe for one hard distribution on S^{d-1} x {+/-1}."""

    d: int
    gamma: float
    theta: float
    lambda2: float = 0.0
    lambda3: float = 0.0
    e: np.ndarray | None = None
    boundary_counts: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma < BAND_HALF_WIDTH:
            raise SpecError(f"gamma must be in (0, 1/8), got {self.gamma}")
        if not 0.0 < self.theta < 1.0:
            raise SpecError(f"theta must be in (0, 1), got {self.theta}")
        lams = (self.lambda2, self.lambda3)
        if any(l < 0 for l in lams) or sum(lams) >= 1.0:
            raise SpecError("mixture weights must be >= 0 and sum to < 1")
        if self.e is None:
            e = np.zeros(self.d)
            e[0] = 1.0
            self.e = e
        else:
            self.e = np.asarray(self.e, dtype=float)
            if len(self.e) != self.d:
                raise SpecError("direction dimension mismatch")
            if abs(np.linalg.norm(self.e) - 1.0) > 1e-9:
                raise SpecError("direction must be a unit vector")

    @property
    def clean_weight(self) -> float:
        return 1.0 - self.lambda2 - self.lambda3


def sample_dataset(spec: AdversarialSpec, n: int, rng: RngStream):
    """n draws from the pullback distribution of the mixture, as arrays
    (X of shape (n, d), y of +/-1 labels).

    The component of each draw, a label coin, the band heights and the
    orthogonal Gaussians are each drawn as one array.
    """
    g = rng.gen
    edges = np.cumsum([spec.clean_weight, spec.lambda2])
    component = np.searchsorted(edges, g.uniform(size=n), side="right")
    coin = g.uniform(size=n)
    # clean pair: (gamma, +1) with probability theta, else (-gamma, -1)
    y = np.where(coin < spec.theta, 1.0, -1.0)
    t = spec.gamma * y
    flipped = component == 1
    t[flipped], y[flipped] = -spec.gamma, 1.0
    band = component == 2
    phase = g.uniform(-math.pi / 2, math.pi / 2, size=int(band.sum()))
    t[band] = BAND_HALF_WIDTH * np.sin(phase)
    y[band] = np.where(coin[band] < 0.5, 1.0, -1.0)
    # X is allocated before sample_band's temporaries and filled from its
    # result: keeping the result itself let the allocator hand memory back
    # to the system and fault it in again on every pass of the sweep_small
    # benchmark (~1400 minor faults, ~5% of its time, Linux x86-64)
    X = np.empty((n, spec.d))
    X[:] = sample_band(spec.e, t, rng)
    return X, y


def certified_margin_bound(spec: AdversarialSpec) -> float:
    """Analytic upper bound on the gamma-margin error of the mixture.

    Witnessed by the reference halfspace through the origin with normal e.
    Valid under the strict boundary convention (error iff y*t < gamma); with
    boundary_counts the clean atoms at exactly +/-gamma are also inside the
    margin, which adds the clean mass and voids the certificate.
    """
    band_mass = 0.5 + math.asin(8.0 * spec.gamma) / math.pi
    bound = spec.lambda2 + spec.lambda3 * band_mass
    if spec.boundary_counts:
        import warnings

        warnings.warn(
            "boundary_counts adds the clean-atom mass; the certificate "
            "requires the strict convention",
            stacklevel=2,
        )
        bound += spec.clean_weight
    return bound

