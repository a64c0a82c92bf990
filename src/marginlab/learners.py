"""Surrogate losses, the norm-constrained kernel program as the empirical
solver, and evaluation metrics.

Every generalized linear method is this one program over a norm ball of an
RKHS; a learner over explicit features psi is the kernel program with
k(x, y) = <psi(x), psi(y)> (a KernelSpec with a feature_map).  The trainer
solves the program in its convex dual,

    D(a) = sum_i h_i(a_i) - C sqrt(a' Q a) - bias_box |y' a|,
    Q = diag(y) G diag(y),

where each loss supplies its conjugate as a box lo w_i <= a_i <= hi w_i and
a concave term h_i (SurrogateLoss).  Every a in the box gives a lower bound
D(a) on the optimum, by weak duality, and the primal point it yields,
alpha = C (a y) / sqrt(a' Q a + mu^2) with the best bias, gives an upper
one; the bracket between them is the gap certificate, and it closes.

The dual is maximized over {box, y' a = 0}, where the bias term vanishes,
by spectral projected gradient (Birgin, Martinez & Raydan, SIAM J. Optim.
10, 2000) on the smoothed sqrt(a' Q a + mu^2), with mu driven towards 0 as
the bracket closes (Nesterov, Math. Prog. 103, 2005).  The loop carries
Q a, so an iteration makes one product with the Gram matrix: the step's
Q d, which the line search along a + t d reuses.  Every few steps it also
extrapolates a along the way those steps went, with no product, since Q a
is carried.  kernels.gram stores the lower triangle only, and the Gram
product, kernels.gram_product, is one BLAS symv that reads that triangle:
half the memory traffic of a general product.  The loop stops once the
bracket is at most GAP_TOL wide, or when its product budget, max_iters *
n_restarts, is spent.

Past the product, an iteration is O(n) work in a few dozen numpy calls,
whose overhead outweighs the product at a few hundred points (at 400, on
one BLAS thread, the product is about a fifth of an iteration).  The
loss's conjugate term and bias search are bound to the points once
(SurrogateLoss.conjugate and bias_search), the loop carries y times the
scores (the margins) rather than the scores, and the projection sorts all
its kinks together only where one Newton step does not reach the root.
Each such change keeps the floating-point operations, and their order, of
the plain form, so the iterates and the reported numbers are the same bit
for bit.

From kernels.F32_MIN_N training points on, kernels.gram stores the triangle
in float32, formed one cache-sized block at a time, which then only steers
the loop; the loop hands it back when it ends (kernels.hand_back), so that
the next training of that size builds in the same memory.  One end pass,
kernels.exact_gram_product, gives K [alpha, a y] in float64 for the
returned primal point and the best dual point, from strips of K formed in
one reused buffer, and the objective, the norm and the certificate are
reported from it.  Below F32_MIN_N the loop's float64
numbers are reported as they are.

evaluate follows the same policy on the test points.  From F32_MIN_N
support points on, for a kernel that kernels.screens, it scores them with
kernels.screened_scores, float32 entries under an a-priori bound on the
distance to the float64 score, and rescores with decision_function, the
float64 path, every block of TEST_BLOCK points that holds a point within
the bound of margin 0 or gamma.  err01 and err_margin are then those of
the float64 path bit for bit.  err_surrogate comes from the screened
scores: for a loss that is L-Lipschitz between them and the float64 scores
(slope for the piecewise-linear losses, 1 / ln 2 for the logistic one), it
lies within L times the mean bound of the float64 path's.  Every other
model is scored by decision_function.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import entr, expit

from .kernels import (KernelSpec, cross_gram, exact_gram_product, gram,
                      gram_product, hand_back, screened_scores, screens)

# the solver stops once its bracket [dual bound, objective] is this narrow
GAP_TOL = 1e-6
# test points per product with the support in decision_function: BLAS packs
# the support once per product, so much smaller blocks cost more in packing.
# A block is also the unit evaluate rescores in float64: a row's float64
# score depends on the block it is in (the product with alpha gave other
# bits in blocks of 2, 3, 5 or 7 rows than of 4 or 8, and a one-row kernel
# product other bits than its row of a larger one), so only the same block
# gives the same bits
TEST_BLOCK = 256
# spectral projected gradient: the non-monotone line search's memory and
# sufficient-increase constant; the spectral step moves no coordinate by
# more than SPG_SPAN times the largest weight before the projection, which
# keeps the box's digits in the projection's c - lam; the backtracking
# limit; and the smoothing mu, kept at most MU_RATIO times the bracket
# divided by C
SPG_MEMORY = 10
SPG_ARMIJO = 1e-4
SPG_SPAN = 1e6
SPG_BACKTRACKS = 60
MU_RATIO = 0.1
# every EXTRAP_EVERY steps the loop also moves a along the span of those
# steps, as far as the smoothed dual rises (at most EXTRAP_REACH spans, and
# inside the box), with no product
EXTRAP_EVERY = 5
EXTRAP_REACH = 1e3
# the logistic conjugate's entropy has an infinite slope at its box faces;
# its gradient is taken at p kept this far inside [0, 1]
ENTROPY_FLOOR = 1e-12
LN2 = math.log(2.0)


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class SurrogateLoss:
    """Convex loss bounded below by the 0-1 loss, with its conjugate.

    value/subgradient are vectorized; subgradient returns the right
    derivative at kinks.  The dual solver reads the conjugate: for a point
    of weight w > 0 and margin m,

        w l(m) = max { h(a) - a m : lo w <= a <= hi w },

    with the box from box() (infinite for the squared loss) and the concave
    term h.  conjugate(w) is the function a -> (sum of h over the points,
    its gradient), the gradient a scalar where h is linear.  peak(w) is the
    a of the zero score function (margin 0), and bias_search(y, w,
    bias_box) is the function from the margins y * scores to the exact
    minimizer of sum w l(y (scores + b)) over |b| <= bias_box.  Both
    compute what depends on the points alone once, for a solver that calls
    them every iteration.
    """

    name: str
    value: object
    subgradient: object

    def box(self) -> tuple:
        raise NotImplementedError

    def conjugate(self, w: np.ndarray):
        raise NotImplementedError

    def peak(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bias_search(self, y: np.ndarray, w: np.ndarray, bias_box: float):
        raise NotImplementedError


@dataclass(frozen=True)
class PiecewiseLinearLoss(SurrogateLoss):
    """offset + slope phi(kink - x), phi(t) = max(t, 0), or |t| if two_sided:
    hinge, absolute, margin_loss and truncated_margin.  Its conjugate has
    the box [0, slope] ([-slope, slope] if two_sided) and the linear term
    offset w + kink a."""

    offset: float
    slope: float
    kink: float
    two_sided: bool

    def box(self):
        return (-self.slope if self.two_sided else 0.0), self.slope

    def conjugate(self, w):
        base, kink = self.offset * float(w.sum()), self.kink

        def term(a):
            return base + kink * float(a.sum()), kink

        return term

    def peak(self, w):
        return self.slope * w  # every shipped kink is > 0

    def bias_search(self, y, w, bias_box):
        """The objective is convex and piecewise linear in b: its slope
        rises by slope w_i (twice that if two_sided) where point i's margin
        crosses the kink, at b = y_i kink - scores_i.  Walk these kinks up
        from the slope at -bias_box until it turns >= 0."""
        yk, wy, y_box = y * self.kink, w * y, y * bias_box
        edges = np.array([-bias_box, bias_box])
        jump = (2.0 if self.two_sided else 1.0) * self.slope
        subgradient = self.subgradient

        def search(margins):
            kinks = yk - y * margins
            rise = float(wy.dot(subgradient(margins - y_box)))
            if rise >= 0.0:
                return -bias_box
            order = kinks.argsort()
            kinks = kinks.take(order)
            first, last = kinks.searchsorted(edges, "right")
            slopes = w.take(order[first:last]).cumsum()
            if jump != 1.0:
                slopes *= jump
            slopes += rise
            k = first + int(slopes.searchsorted(0.0))
            return float(kinks[k]) if k < last else bias_box

        return search


@dataclass(frozen=True)
class SquaredLoss(SurrogateLoss):
    """(1 - x)^2: no box, and the term a - a^2 / 4w."""

    def box(self):
        return -math.inf, math.inf

    def conjugate(self, w):
        w2, w4 = 2.0 * w, 4.0 * w

        def term(a):
            return float(np.sum(a - a * a / w4)), 1.0 - a / w2

        return term

    def peak(self, w):
        return 2.0 * w

    def bias_search(self, y, w, bias_box):
        # the slope in b is affine, with rise 2 sum w
        wy, total = w * y, 2.0 * float(w.sum())
        subgradient = self.subgradient

        def search(margins):
            rise = float(wy.dot(subgradient(margins)))
            return min(max(-rise / total, -bias_box), bias_box)

        return search


@dataclass(frozen=True)
class LogisticLoss(SurrogateLoss):
    """log2(1 + e^-x): the box [0, 1/ln 2] and the binary entropy term
    (w / ln 2) H(a ln 2 / w), in nats."""

    def box(self):
        return 0.0, 1.0 / LN2

    def conjugate(self, w):
        def term(a):
            p = np.clip(a * LN2 / w, 0.0, 1.0)
            inner = np.clip(p, ENTROPY_FLOOR, 1.0 - ENTROPY_FLOOR)
            return (float(w.dot(entr(p) + entr(1.0 - p))) / LN2,
                    np.log1p(-inner) - np.log(inner))

        return term

    def peak(self, w):
        return w / (2.0 * LN2)

    def bias_search(self, y, w, bias_box):
        """The root of the slope in b, which rises with b, by Brent's
        method."""
        wy = w * y

        def search(margins):
            def slope(b):
                return -float(wy.dot(expit(-(margins + y * b)))) / LN2

            if slope(-bias_box) >= 0.0:
                return -bias_box
            if slope(bias_box) <= 0.0:
                return bias_box
            return brentq(slope, -bias_box, bias_box, xtol=1e-15)

        return search


def _piecewise(name, offset, slope, kink, two_sided=False):
    rise = slope if two_sided else 0.0
    phi = np.abs if two_sided else (lambda t: np.maximum(t, 0.0))

    def value(x):
        # kink - x is never -0, so phi is +0 or more (or NaN), and a slope
        # of 1 or an offset of 0 would change no bit: they are left out
        v = phi(kink - x)
        if slope != 1.0:
            v = slope * v
        return offset + v if offset else v

    return PiecewiseLinearLoss(
        name, value,
        lambda x: np.where(x < kink, -slope, rise),
        offset=offset, slope=slope, kink=kink, two_sided=two_sided,
    )


def make_loss(name: str, C: float | None = None) -> SurrogateLoss:
    """Shipped losses: hinge, squared, absolute, logistic, margin_loss(C),
    truncated_margin(C)."""
    if name == "hinge":
        return _piecewise("hinge", 0.0, 1.0, 1.0)
    if name == "squared":
        return SquaredLoss("squared", lambda x: (1.0 - x) ** 2,
                           lambda x: -2.0 * (1.0 - x))
    if name == "absolute":
        return _piecewise("absolute", 0.0, 1.0, 1.0, two_sided=True)
    if name == "logistic":
        return LogisticLoss(
            "logistic",
            lambda x: np.log1p(np.exp(-x)) / LN2,
            lambda x: -1.0 / ((1.0 + np.exp(x)) * LN2),
        )
    if name in ("margin_loss", "truncated_margin"):
        if C is None or C <= 0:
            raise LossError(f"{name} needs a scale constant C > 0")
        if name == "margin_loss":
            # 1 - x below the knee 1/C, flat at 1 - 1/C above it
            return _piecewise(f"margin_loss(C={C:g})", 1.0 - 1.0 / C, 1.0,
                              1.0 / C)
        # truncated_margin: (1 - C x)_+ = hinge(C x)
        return _piecewise(f"truncated_margin(C={C:g})", 0.0, C, 1.0 / C)
    raise LossError(f"unknown loss {name!r}")


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------

@dataclass
class SolverOptions:
    """The dual solver makes at most max_iters * n_restarts Gram products;
    eps_opt is the certificate up to which a model counts as converged, and
    bias_box bounds |b|."""

    max_iters: int = 2000
    n_restarts: int = 10
    eps_opt: float = 0.1
    bias_box: float = 10.0


@dataclass
class KernelModel:
    support: np.ndarray
    alpha: np.ndarray
    b: float
    C: float
    kernel: KernelSpec
    loss: SurrogateLoss
    objective: float = math.nan
    gap_certificate: float = math.nan
    converged: bool = True
    _norm: float | None = field(default=None, repr=False)

    @property
    def norm(self) -> float:
        """RKHS norm sqrt(alpha' K alpha), in float64: the one
        train_kernel_program computed, or else one exact_gram_product."""
        if self._norm is None:
            Ka = exact_gram_product(self.kernel, self.support, self.alpha)
            self._norm = math.sqrt(max(float(self.alpha @ Ka), 0.0))
        return self._norm

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Scores in float64, TEST_BLOCK rows at a time: the rows' kernel
        matrix with the support (cross_gram), times alpha, plus b.  A
        feature map maps the support once per call."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k, support = self.kernel, self.support
        if not k.is_zonal:
            FT = k.feature_map(np.asarray(support, dtype=float)).T
        out = np.empty(len(X))
        for lo in range(0, len(X), TEST_BLOCK):
            rows = X[lo:lo + TEST_BLOCK]
            K = (cross_gram(k, rows, support) if k.is_zonal
                 else k.feature_map(rows) @ FT)
            out[lo:lo + TEST_BLOCK] = K @ self.alpha
        return out + self.b

    def to_json(self) -> str:
        return json.dumps(
            {
                "kernel": self.kernel.name,
                "kernel_params": {
                    k: v for k, v in self.kernel.params.items()
                    if isinstance(v, (int, float, str))
                },
                "loss": self.loss.name,
                "support": self.support.tolist(),
                "alpha": self.alpha.tolist(),
                "b": self.b,
                "C": self.C,
                "objective": self.objective,
                "gap_certificate": self.gap_certificate,
                "converged": self.converged,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# The dual solver.
# ---------------------------------------------------------------------------

def _as_arrays(data):
    """(X, y, normalized weights) from a dataset tuple (X, y) or (X, y, w)."""
    X = np.atleast_2d(np.asarray(data[0], dtype=float))
    y = np.asarray(data[1], dtype=float)
    if len(y) == 0:
        raise LossError("empty dataset")
    if not np.all(np.abs(y) == 1.0):
        raise LossError("labels must be +/-1")
    if len(data) > 2:
        wts = np.asarray(data[2], dtype=float)
        if wts.shape != y.shape:
            raise LossError(f"weights of shape {wts.shape} for {len(y)} labels")
        total = wts.sum()
        # the certificate needs w >= 0; a NaN fails the comparison and an
        # inf makes the total inf
        if not (np.all(wts >= 0.0) and 0.0 < total < math.inf):
            raise LossError("weights must be finite, >= 0 and not all 0")
        wts = wts / total
    else:
        wts = np.full(len(y), 1.0 / len(y))
    return X, y, wts


def _projector(y, lower, upper):
    """The Euclidean projection onto {lower <= a <= upper, y' a = 0}.

    In the coordinates c = y z the bounds become (L, U), and the projection
    is y clip(c - lam, L, U) at the root lam of
    phi(lam) = sum clip(c - lam, L, U): coordinate i sits at U_i up to its
    kink c_i - U_i (a top), is free up to its kink c_i - L_i (a bottom) and
    sits at L_i beyond, so phi is non-increasing and linear between kinks,
    with slope minus the number of free coordinates.  project(z, scale)
    starts from the last root times scale over the last call's scale: for
    z = a + sigma g with a feasible, the root grows with the spectral step
    sigma.  Each evaluation of phi takes a Newton step, which is the root if
    it stops short of the next kink.  If not, the next lam is that step
    while it stays inside the kinks that bracket the root and Newton keeps
    halving |phi|, and the middle one of those kinks otherwise.  Every box
    here holds 0, so the set is never empty.

    The tops and the bottoms are sorted apart: a top never lies above its
    bottom, so the free coordinates are the tops at or below lam less the
    bottoms there (below lam on the side where phi < 0), and the next kink
    is the nearer of the next top and the next bottom.  Most calls end at
    the first Newton step; only the others sort all kinks together, for
    the middle kink.  The squared loss's infinite box puts every top at
    -inf and every bottom at +inf, so its first Newton step is the root.

    The search ends within 2m + 1 evaluations of phi, m = len(y).  The root
    lies between kinks[lo - 1] and kinks[hi], 0 <= lo <= hi <= 2m, where
    kinks holds the 2m kinks sorted.  Past the first evaluation, each lam
    is a kink of the bracket or a Newton step inside it, kinks[lo] <= lam
    <= kinks[hi - 1], so where phi(lam) > 0 the count of kinks <= lam that
    becomes lo exceeds the old lo, where phi(lam) < 0 the count of kinks <
    lam that becomes hi is below the old hi, and the search stops once lo
    >= hi.  So hi - lo falls by at least 1 in every evaluation but the
    first.  A search that has not ended by then has miscounted the kinks,
    and raises LossError rather than run on.
    """
    L = np.where(y > 0, lower, -upper)
    U = np.where(y > 0, upper, -lower)
    m, inf = len(y), math.inf
    root = [0.0]

    def project(z, scale=1.0):
        c = y * z
        tops, bottoms = c - U, c - L
        tops.sort()
        bottoms.sort()
        # the root lies between kinks[lo - 1] and kinks[hi]
        kinks, lo, hi, lam = None, 0, 2 * m, root[0] * scale
        last, newton = inf, False
        a = np.minimum(np.maximum(c - lam, L), U)
        phi = float(a.sum())
        for _ in range(2 * m + 1):
            if phi == 0.0:
                break
            # Newton's step with the slope on the root's side, where a
            # coordinate at a kink counts if the step frees it
            rising = phi > 0.0
            side = "right" if rising else "left"
            i = int(tops.searchsorted(lam, side))
            j = int(bottoms.searchsorted(lam, side))
            if rising:
                lo = max(lo, i + j)
                step = lam + phi / (i - j) if i > j else inf
                done = step <= min(tops[i] if i < m else inf,
                                   bottoms[j] if j < m else inf)
            else:
                hi = min(hi, i + j)
                step = lam + phi / (i - j) if i > j else -inf
                done = step >= max(tops[i - 1] if i else -inf,
                                   bottoms[j - 1] if j else -inf)
            if not done:
                if kinks is None:
                    kinks = np.concatenate((c - U, c - L))
                    kinks.sort()
                if rising:
                    edge = kinks[lo] if lo < 2 * m else inf
                    done = step <= edge
                else:
                    edge = kinks[hi - 1] if hi > 0 else -inf
                    done = step >= edge
            if done or lo >= hi:  # the latter only by rounding
                lam = step if done else edge
                a = np.minimum(np.maximum(c - lam, L), U)
                break
            # Newton's step again, unless it leaves the bracketing kinks or
            # the last one did not halve |phi|; else the middle kink
            newton = (2 * abs(phi) <= last or not newton) and \
                kinks[lo] <= step <= kinks[hi - 1]
            lam, last = (step if newton else kinks[(lo + hi) // 2]), abs(phi)
            a = np.minimum(np.maximum(c - lam, L), U)
            phi = float(a.sum())
        else:
            raise LossError(f"the projection's root search ran past {2 * m + 1}"
                            " evaluations: its kinks are miscounted")
        root[0] = lam / scale
        return y * a

    return project


def _extrapolation(a, Qa, dh, e, Qe, lower, upper, C, mu, term):
    """The t in [0, reach] that maximizes the smoothed dual along a + t e,
    where reach is EXTRAP_REACH or the box's edge if nearer; 0 where F does
    not rise along e.  a' Q a along the ray comes from Qa and Qe, and F is
    concave in t, so the top is reach or the root of F's slope (brentq).
    h's part of the slope is its gradient summed along e: a constant where
    h is linear (its gradient dh at a is a scalar), else the gradient at
    a + t e."""
    room = np.full(len(a), math.inf)
    np.divide(upper - a, e, out=room, where=e > 0)
    np.divide(lower - a, e, out=room, where=e < 0)
    reach = min(float(room.min()), EXTRAP_REACH)
    aQa, aQe, eQe = float(a.dot(Qa)), float(a.dot(Qe)), float(e.dot(Qe))
    if np.ndim(dh) == 0:
        rise = float(np.sum(dh * e))

        def along(t):
            return rise
    else:
        def along(t):
            return float(np.sum(term(a + t * e)[1] * e))

    def slope(t):
        q = max(aQa + t * (2.0 * aQe + t * eQe), 0.0)
        return along(t) - C * (aQe + t * eQe) / math.sqrt(q + mu * mu)

    if not (reach > 0.0 and slope(0.0) > 0.0):
        return 0.0
    if slope(reach) >= 0.0:
        return reach
    return brentq(slope, 0.0, reach)


def train_kernel_program(data, kernel: KernelSpec, loss: SurrogateLoss, C: float,
                         opts: SolverOptions = SolverOptions()):
    """Solve  min mean l(y (f(x) + b))  over ||f||_{H_k} <= C and
    |b| <= bias_box, to a certified bracket.

    Restricting f to span{k(., x_i)} is lossless (it preserves sample
    predictions and never increases the norm), and points of weight 0 leave
    the objective alone, so they are dropped.  The solver maximizes the
    smoothed dual F(a) = sum h(a) - C sqrt(a' Q a + mu^2) over
    {box, y' a = 0} (see the module docstring): from the gradient g it
    projects a + sigma g with the spectral step sigma, makes the one product
    Q d with the direction d, and searches t along a + t d with the
    non-monotone Armijo rule, reading a' Q a at a + t d off a' Q a, a' Q d and
    d' Q d.  The smoothing covers Q's null space, so G is K itself, singular
    or not.  Where the norm bound is slack at the optimum, the smoothed
    support term is stiff across a narrow valley and the steps zigzag along
    it, so every EXTRAP_EVERY steps a also moves along its span over those
    steps as far as F rises (_extrapolation), Q a again read off the carried
    products.

    Every iterate a gives the primal point alpha = C (a y) / sqrt(a' Q a +
    mu^2), of norm < C, whose scores G alpha come from the carried Q a, and
    the bias that minimizes the objective over |b| <= bias_box
    (loss.bias_search).
    The gap certificate is the best objective less the best unsmoothed D(a),
    bias_box |y' a| included, so that it holds for every a in the box.  It
    holds for every shipped loss, since each is convex, and for any base
    scores, since weak duality does not ask where the primal point came
    from.  The bracket closes only where some optimal bias lies inside the
    box, as the restriction y' a = 0 assumes.

    mu starts at infinity (the first primal point is the zero function) and
    after each iterate is kept at most MU_RATIO times the bracket over C,
    which bounds the smoothing's error C mu.  Each iteration makes one
    product.  Where the projected step makes no ascent, a maximizes F: D(a)
    and its primal point lie within C mu of the optimum, and a is evaluated
    once more, with no product, at mu's floor MU_RATIO GAP_TOL / C.  The loop
    stops once the bracket is at most GAP_TOL, once the products reach
    max_iters * n_restarts, or where no step ascends at the floor.  eps_opt
    sets only the converged flag.

    From kernels.F32_MIN_N points on, the Gram matrix is float32, and the
    numbers reported come from one float64 end pass, exact_gram_product of
    [alpha, a y] for the best primal point and the best dual point: the
    objective of the returned alpha (rescaled onto the ball if it lies
    outside), its norm, and the certificate, that objective less D(a)
    recomputed.
    """
    if C < 0:
        raise LossError("norm bound must be >= 0")
    if opts.max_iters < 1 or opts.n_restarts < 1:
        raise LossError("max_iters and n_restarts must be >= 1")
    X, y, wts = _as_arrays(data)
    if not wts.all():
        X, y, wts = X[wts > 0], y[wts > 0], wts[wts > 0]
    G = gram(kernel, X)
    if float(np.min(np.diag(G))) < -1e-8 * len(y):
        raise LossError("Gram diagonal negative beyond tolerance: invalid kernel")

    bias_box, budget = opts.bias_box, opts.max_iters * opts.n_restarts
    span = SPG_SPAN * float(wts.max())
    lo, hi = loss.box()
    box_lo, box_hi = lo * wts, hi * wts
    project = _projector(y, box_lo, box_hi)
    term, bias = loss.conjugate(wts), loss.bias_search(y, wts, bias_box)
    value, sqrt = loss.value, math.sqrt
    a = project(loss.peak(wts))
    Qa = y * gram_product(G, y * a)
    products = 1
    h, dh = term(a)
    floor = MU_RATIO * GAP_TOL / C if C > 0 else 1.0
    mu = math.inf if C > 0 else floor
    best_f, lower, previous = math.inf, -math.inf, None
    history = deque(maxlen=SPG_MEMORY)
    steps, anchor = 0, None
    while True:
        aQa = max(float(a.dot(Qa)), 0.0)
        bound = h - C * sqrt(aQa) - bias_box * abs(float(y.dot(a)))
        if bound > lower:
            lower, dual = bound, (a, Qa)
        scale = C / sqrt(aQa + mu * mu)
        # Qa is y times the scores of a y, so these are y times the scores
        # of the primal point, bit for bit
        margins = scale * Qa
        b = bias(margins)
        f = float(wts.dot(value(margins + b * y)))
        if f < best_f:
            best_f, best = f, (a, scale, b, Qa)
        gap = best_f - lower
        if gap <= GAP_TOL or products >= budget:
            break
        if mu > floor and C * mu > MU_RATIO * gap:
            mu = max(MU_RATIO * gap / C, floor)
            history.clear()
        root = sqrt(aQa + mu * mu)
        g = dh - (C / root) * Qa
        longest = span / max(float(abs(g).max()), 1e-300)
        if previous is None:
            sigma = 1.0 / max(float(abs(project(a + g) - a).max()),
                              1.0 / longest)
        else:
            s, g_old = previous
            sy = float(s.dot(g_old - g))
            sigma = min(float(s.dot(s)) / sy, longest) if sy > 0 else longest
        d = project(a + sigma * g, sigma) - a
        ascent = float(g.dot(d))
        if not ascent > 0.0:
            if mu <= floor:
                break
            mu, previous = floor, None
            history.clear()
            continue
        Qd = y * gram_product(G, y * d)
        products += 1
        history.append(h - C * root)
        reference = min(history)
        aQd, dQd = float(a.dot(Qd)), float(d.dot(Qd))
        t = 1.0
        for _ in range(SPG_BACKTRACKS):
            # a + 1.0 d is a + d, bit for bit
            a_t = a + t * d if t != 1.0 else a + d
            h_t, dh_t = term(a_t)
            q = max(aQa + t * (2.0 * aQd + t * dQd), 0.0)
            if (h_t - C * sqrt(q + mu * mu)
                    >= reference + SPG_ARMIJO * t * ascent):
                break
            t *= 0.5
        else:
            break
        previous = (a_t - a, g)
        a, h, dh = a_t, h_t, dh_t
        Qa = Qa + t * Qd if t != 1.0 else Qa + Qd
        steps += 1
        if steps % EXTRAP_EVERY:
            continue
        if anchor is not None:
            e, Qe = a - anchor[0], Qa - anchor[1]
            t = _extrapolation(a, Qa, dh, e, Qe, box_lo, box_hi, C, mu, term)
            if t > 0.0:
                a = np.minimum(np.maximum(a + t * e, box_lo), box_hi)
                Qa = Qa + t * Qe
                h, dh = term(a)
        anchor = (a, Qa)

    (a, scale, b, Qa), (a_dual, Qa_dual) = best, dual
    alpha, v = scale * (y * a), y * a_dual
    if G.dtype == np.float64:
        Kalpha, Kv = scale * (y * Qa), y * Qa_dual
    else:
        hand_back(G)  # the end pass forms K from the points, not from G
        Kalpha, Kv = exact_gram_product(kernel, X,
                                        np.column_stack([alpha, v])).T
    norm = sqrt(max(float(alpha.dot(Kalpha)), 0.0))
    if norm > C:
        alpha, Kalpha, norm = alpha * (C / norm), Kalpha * (C / norm), C
    objective = float(wts.dot(value(y * (Kalpha + b))))
    vKv = max(float(v.dot(Kv)), 0.0)
    cert = objective - (term(a_dual)[0] - C * sqrt(vKv)
                        - bias_box * abs(float(y.dot(a_dual))))
    return KernelModel(
        support=X, alpha=alpha, b=b, C=C, kernel=kernel, loss=loss,
        objective=objective, gap_certificate=cert,
        converged=cert <= opts.eps_opt, _norm=norm,
    )


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _test_scores(model, X, y, gamma: float) -> np.ndarray:
    """The model's scores on X, float64 or screened (module docstring).

    The screened fl(s^ + b) and the float64 path's fl(s + b) differ by at
    most |s^ - s| + u |s^ + b| + u |s + b|, u = eps / 2, which the bound
    plus eps |fl(s^ + b)|, times 1 + eps, covers.  A point whose margin
    lies farther than that from 0 and from gamma falls on the same side of
    both as under the float64 path; the TEST_BLOCK blocks of the others,
    and of any margin that is NaN, are rescored."""
    if not screens(model.kernel, len(model.support)):
        return model.decision_function(X)
    scores, bound = screened_scores(model.kernel, X, model.support,
                                    model.alpha)
    scores += model.b
    eps = np.finfo(float).eps
    bound = (bound + eps * np.abs(scores)) * (1.0 + eps)
    margins = y * scores
    decided = np.minimum(np.abs(margins), np.abs(margins - gamma)) > bound
    for lo in np.unique(np.flatnonzero(~decided) // TEST_BLOCK) * TEST_BLOCK:
        scores[lo:lo + TEST_BLOCK] = model.decision_function(
            X[lo:lo + TEST_BLOCK])
    return scores


def evaluate(model, data, gamma: float, boundary_counts: bool = False):
    """(err01, err_margin, err_surrogate) of the model's score function on a
    dataset tuple (X, y); see the module docstring for the precision."""
    X, y, _ = _as_arrays(data)
    margins = y * _test_scores(model, X, y, gamma)
    err01 = float(np.mean(margins <= 0.0))
    if boundary_counts:
        err_margin = float(np.mean(margins <= gamma))
    else:
        err_margin = float(np.mean(margins < gamma))
    err_surrogate = float(np.mean(model.loss.value(margins)))
    return err01, err_margin, err_surrogate
