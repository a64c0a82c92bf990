"""Surrogate losses, the norm-constrained kernel program as the empirical
solver, and evaluation metrics.

Every generalized linear method is this one program over a norm ball of an
RKHS; a learner over explicit features psi is the kernel program with
k(x, y) = <psi(x), psi(y)> (a KernelSpec with a feature_map).  The trainer
runs a projected-subgradient loop with iterate averaging.  On top of the base
schedule eta_t = R / (Lhat sqrt(t)) it restarts with a geometrically
shrinking radius around the incumbent, which recovers high accuracy on the
piecewise-linear objectives used here.  The loop carries the scores G alpha
on the training points as state, so an iteration makes one product with the
Gram matrix.  kernels.gram stores the lower triangle only, and the Gram
product, kernels.gram_product, is one BLAS symv that reads that triangle:
half the memory traffic of a general product.  The reported gap certificate
is the best objective less one convex-dual lower bound, _dual_bound, taken
at every iterate and at each stage's step-weighted average.  The loop stops
at once on a zero subgradient, where the iterate is optimal.

From kernels.F32_MIN_N training points on, kernels.gram stores the triangle
in float32, which then only steers the loop.  One end pass,
kernels.exact_gram_product, gives K [alpha, u] in float64 for the returned
iterate and the largest bound's weights, and the objective, the norm and the
certificate are reported from it.  Below F32_MIN_N the loop's float64
numbers are reported as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (KernelSpec, cross_gram, exact_gram_product, gram,
                      gram_product)

GRAM_JITTER = 1e-10
# test points per product with the support in decision_function: BLAS packs
# the support once per product, so much smaller blocks cost more in packing
TEST_BLOCK = 256


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class SurrogateLoss:
    """Convex loss bounded below by the 0-1 loss.  margin_loss(C) is
    max(1 - x, 1 - 1/C), a hinge flattened at its minimum: convex too, so
    the solver's gap certificate holds for every shipped loss.

    value/subgradient are vectorized; subgradient returns the right derivative
    at kinks.  lipschitz is math.inf for unbounded-slope losses.

    Contract: subgradient is 0 only where value is at the loss's minimum.
    The solver stops on an all-zero subgradient and relies on it; every
    shipped loss keeps it, margin_loss too (flat only at its minimum).
    """

    name: str
    value: object
    subgradient: object
    lipschitz: float


def make_loss(name: str, C: float | None = None) -> SurrogateLoss:
    """Shipped losses: hinge, squared, absolute, logistic, margin_loss(C),
    truncated_margin(C)."""
    if name == "hinge":
        return SurrogateLoss(
            "hinge",
            lambda x: np.maximum(1.0 - x, 0.0),
            lambda x: np.where(x < 1.0, -1.0, 0.0),
            lipschitz=1.0,
        )
    if name == "squared":
        return SurrogateLoss(
            "squared",
            lambda x: (1.0 - x) ** 2,
            lambda x: -2.0 * (1.0 - x),
            lipschitz=math.inf,
        )
    if name == "absolute":
        return SurrogateLoss(
            "absolute",
            lambda x: np.abs(1.0 - x),
            lambda x: np.where(x < 1.0, -1.0, 1.0),
            lipschitz=1.0,
        )
    if name == "logistic":
        ln2 = math.log(2.0)
        return SurrogateLoss(
            "logistic",
            lambda x: np.log1p(np.exp(-x)) / ln2,
            lambda x: -1.0 / ((1.0 + np.exp(x)) * ln2),
            lipschitz=1.0 / ln2,
        )
    if name in ("margin_loss", "truncated_margin"):
        if C is None or C <= 0:
            raise LossError(f"{name} needs a scale constant C > 0")
        knee = 1.0 / C
        if name == "margin_loss":
            # 1 - x below the knee, flat at 1 - 1/C above it
            return SurrogateLoss(
                f"margin_loss(C={C:g})",
                lambda x: np.where(x <= knee, 1.0 - x, 1.0 - knee),
                lambda x: np.where(x < knee, -1.0, 0.0),
                lipschitz=1.0,
            )
        # truncated_margin: (1 - C x)_+ = hinge(C x)
        return SurrogateLoss(
            f"truncated_margin(C={C:g})",
            lambda x: np.maximum(1.0 - C * x, 0.0),
            lambda x: np.where(x < knee, -C, 0.0),
            lipschitz=C,
        )
    raise LossError(f"unknown loss {name!r}")


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------

@dataclass
class SolverOptions:
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
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X))
        for lo in range(0, len(X), TEST_BLOCK):
            out[lo:lo + TEST_BLOCK] = cross_gram(
                self.kernel, X[lo:lo + TEST_BLOCK], self.support) @ self.alpha
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
# Projected-subgradient solver.
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
        # the solver's zero-subgradient stop and its certificate need w >= 0;
        # a NaN fails the comparison and an inf makes the total inf
        if not (np.all(wts >= 0.0) and 0.0 < total < math.inf):
            raise LossError("weights must be finite, >= 0 and not all 0")
        wts = wts / total
    else:
        wts = np.full(len(y), 1.0 / len(y))
    return X, y, wts


def _dual_bound(phi, gb, support, bias_box):
    """Lower bound on the optimum from a linearization of the objective.

    For a convex objective, OPT >= f(z) + <grad, z* - z> at every iterate z,
    and so at every convex combination of these inequalities.  With the
    loss-gradient weights u (grad = sum_i u_i times the i-th point's feature,
    and gb = sum u for the bias), phi = f - u . scores - b gb and support the
    largest <grad, w'> over the norm ball, the minimum of the right-hand side
    over the feasible set is phi - support - bias_box |gb|.  At an iterate
    this is the Frank-Wolfe duality gap (Jaggi, ICML 2013); at an average of
    iterates, primal-dual averaging (Nesterov, Math. Prog. 120, 2009).
    """
    return phi - support - bias_box * abs(gb)


def train_kernel_program(data, kernel: KernelSpec, loss: SurrogateLoss, C: float,
                         opts: SolverOptions = SolverOptions()):
    """Approximately solve  min mean l(y (f(x) + b))  over ||f||_{H_k} <= C
    and |b| <= bias_box.

    Restricting f to span{k(., x_i)} is lossless (it preserves sample
    predictions and never increases the norm), so the search runs over dual
    coefficients alpha with the ellipsoidal projection
    alpha <- alpha * min(1, C / sqrt(alpha' G alpha)).  For the loss-gradient
    weights u_i = wts_i y_i l'(y_i (G alpha + b)_i) the scores G alpha are
    carried through the step alpha' = s (alpha - eta u) as
    G alpha' = s (G alpha - eta G u), so each iteration makes the one Gram
    product G u, which also gives the RKHS norm sqrt(u' G u) of the step.

    Restart k reruns the schedule eta_t = (R / 2^k) / (Lhat sqrt(t)) from the
    incumbent, which polishes the piecewise-linear objectives used here.

    The gap certificate is the best objective less the largest _dual_bound,
    taken at every iterate (support C sqrt(u' G u)) and at each stage's
    eta-weighted average of the iterates' linearizations (support
    C sqrt(ubar' G ubar), with G ubar averaged from the products G u already
    made).  It holds for every shipped loss, since each is convex
    (margin_loss too); and for any base scores, since a convex loss lies
    above its linearization at every point, so the carried scores need not
    be exactly G alpha.

    From kernels.F32_MIN_N points on, the Gram matrix is float32, and the
    numbers reported come from one float64 end pass, exact_gram_product of
    [alpha, u] for the incumbent and the weights u of the largest bound:
    the objective of the incumbent, its norm (alpha rescaled onto the ball
    if it lies outside), and the certificate, that objective less the bound
    with its support C sqrt(u' G u) recomputed.  In both precisions the
    numbers refer to G = K + GRAM_JITTER I; a float32 triangle cannot hold
    the jitter, so the end pass adds it.

    If u is all 0, every weighted term sits at its loss's minimum (the
    SurrogateLoss contract, with weights >= 0), so the iterate is a global
    optimum; every later step would be 0 and could not replace the
    incumbent, which needs a strictly smaller objective.  The loop returns
    there, with no tolerance; alpha, b and the objective are those of the
    full schedule.
    """
    if C < 0:
        raise LossError("norm bound must be >= 0")
    if opts.max_iters < 1 or opts.n_restarts < 1:
        raise LossError("max_iters and n_restarts must be >= 1")
    X, y, wts = _as_arrays(data)
    n = len(y)
    G = gram(kernel, X)
    eig_floor = float(np.min(np.diag(G)))
    if eig_floor < -1e-8 * n:
        raise LossError("Gram diagonal negative beyond tolerance: invalid kernel")
    G[np.diag_indices_from(G)] += GRAM_JITTER

    bias_box = opts.bias_box
    wy = wts * y
    lip = loss.lipschitz if math.isfinite(loss.lipschitz) else 1.0
    radius = 2.0 * C + 2.0 * bias_box

    value, subgradient, sqrt = loss.value, loss.subgradient, math.sqrt
    alpha, scores, b = np.zeros(n), np.zeros(n), 0.0
    margins = y * (scores + b)
    best_f = float(wts.dot(value(margins)))
    best = (alpha, b, scores, margins)
    # the largest bound and its (phi, u, gb)
    lower, argmax = -math.inf, (-math.inf, np.zeros(n), 0.0)
    optimal = False
    for stage in range(opts.n_restarts):
        R = radius / 2**stage
        (alpha, b, scores, margins), f = best, best_f
        avg_alpha, avg_b, avg_scores = np.zeros(n), 0.0, np.zeros(n)
        avg_u, avg_Gu, avg_phi = np.zeros(n), np.zeros(n), 0.0
        sum_eta = 0.0
        lhat = max(lip, 1e-12)
        for t in range(1, opts.max_iters + 1):
            u = wy * subgradient(margins)
            gb = float(u.sum())
            Gu = gram_product(G, u)
            # RKHS norm of the functional part sum u_i k(., x_i) of the step
            unorm = sqrt(max(float(u.dot(Gu)), 0.0))
            phi = f - float(u.dot(scores)) - b * gb
            bound = _dual_bound(phi, gb, C * unorm, bias_box)
            if bound > lower:
                lower, argmax = bound, (phi, u, gb)
            if unorm == 0.0 and gb == 0.0 and not u.any():
                # optimal: no later step moves, so best is final
                optimal = True
                break
            gnorm = math.hypot(unorm, gb)
            lhat = max(lhat, gnorm)
            eta = R / (lhat * sqrt(t))
            step, gstep = eta * u, eta * Gu
            alpha, scores = alpha - step, scores - gstep
            avg_u += step
            avg_Gu += gstep
            avg_phi += eta * phi
            q = float(alpha.dot(scores))
            if q > C * C:
                scale = C / sqrt(q)
                alpha, scores = alpha * scale, scores * scale
            b = min(max(b - eta * gb, -bias_box), bias_box)
            sum_eta += eta
            avg_alpha += eta * alpha
            avg_b += eta * b
            avg_scores += eta * scores
            margins = y * (scores + b)
            f = float(wts.dot(value(margins)))
            if f < best_f:
                best, best_f = (alpha, b, scores, margins), f
        if optimal:
            break
        ubar = avg_u / sum_eta
        ubar_norm = sqrt(max(float(ubar.dot(avg_Gu)) / sum_eta, 0.0))
        phi, gb = avg_phi / sum_eta, float(ubar.sum())
        bound = _dual_bound(phi, gb, C * ubar_norm, bias_box)
        if bound > lower:
            lower, argmax = bound, (phi, ubar, gb)
        alpha, scores = avg_alpha / sum_eta, avg_scores / sum_eta
        q = float(alpha.dot(scores))
        if q > C * C:
            scale = C / sqrt(q)
            alpha, scores = alpha * scale, scores * scale
        b = min(max(avg_b / sum_eta, -bias_box), bias_box)
        margins = y * (scores + b)
        f = float(wts.dot(value(margins)))
        if f < best_f:
            best, best_f = (alpha, b, scores, margins), f
    alpha, b = best[0], float(best[1])
    if G.dtype == np.float64:
        objective, cert = best_f, best_f - lower
        norm = sqrt(max(float(alpha @ gram_product(G, alpha)), 0.0))
    else:
        phi, u, gb = argmax
        V = np.column_stack([alpha, u])
        KV = exact_gram_product(kernel, X, V) + GRAM_JITTER * V
        scores = KV[:, 0]
        norm = sqrt(max(float(alpha.dot(scores)), 0.0))
        if norm > C:
            alpha, scores, norm = alpha * (C / norm), scores * (C / norm), C
        objective = float(wts.dot(value(y * (scores + b))))
        unorm = sqrt(max(float(u.dot(KV[:, 1])), 0.0))
        cert = objective - _dual_bound(phi, gb, C * unorm, bias_box)
    return KernelModel(
        support=X, alpha=alpha, b=b, C=C, kernel=kernel, loss=loss,
        objective=objective, gap_certificate=cert,
        converged=cert <= opts.eps_opt, _norm=norm,
    )


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def evaluate(model, data, gamma: float, boundary_counts: bool = False):
    """(err01, err_margin, err_surrogate) of the model's score function on a
    dataset tuple (X, y)."""
    X, y, _ = _as_arrays(data)
    margins = y * model.decision_function(X)
    err01 = float(np.mean(margins <= 0.0))
    if boundary_counts:
        err_margin = float(np.mean(margins <= gamma))
    else:
        err_margin = float(np.mean(margins < gamma))
    err_surrogate = float(np.mean(model.loss.value(margins)))
    return err01, err_margin, err_surrogate
