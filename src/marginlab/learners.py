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
product, kernels.gram_product, is one BLAS dsymv that reads that triangle:
half the memory traffic of a general product.  The reported gap certificate
is the smaller of the first stage's averaged-subgradient bound and the best
objective less the best linearization (Frank-Wolfe) lower bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, cross_gram, gram, gram_product

GRAM_JITTER = 1e-10
# test points per product with the support in decision_function: BLAS packs
# the support once per product, so much smaller blocks cost more in packing
TEST_BLOCK = 256


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class SurrogateLoss:
    """Loss bounded below by the 0-1 loss, convex except for margin_loss
    (flat above its knee, so the solver's gap certificate is void for it).

    value/subgradient are vectorized; subgradient returns the right derivative
    at kinks.  lipschitz is math.inf for unbounded-slope losses.
    """

    name: str
    value: object
    subgradient: object
    d_plus_at_0: float
    lipschitz: float

    @property
    def at_zero(self) -> float:
        return float(self.value(np.asarray(0.0)))


def make_loss(name: str, gamma: float | None = None, C: float | None = None) -> SurrogateLoss:
    """Shipped losses: hinge, squared, absolute, logistic, margin_loss(gamma, C),
    truncated_margin(gamma, C)."""
    if name == "hinge":
        return SurrogateLoss(
            "hinge",
            lambda x: np.maximum(1.0 - x, 0.0),
            lambda x: np.where(x < 1.0, -1.0, 0.0),
            d_plus_at_0=-1.0,
            lipschitz=1.0,
        )
    if name == "squared":
        return SurrogateLoss(
            "squared",
            lambda x: (1.0 - x) ** 2,
            lambda x: -2.0 * (1.0 - x),
            d_plus_at_0=-2.0,
            lipschitz=math.inf,
        )
    if name == "absolute":
        return SurrogateLoss(
            "absolute",
            lambda x: np.abs(1.0 - x),
            lambda x: np.where(x < 1.0, -1.0, 1.0),
            d_plus_at_0=-1.0,
            lipschitz=1.0,
        )
    if name == "logistic":
        ln2 = math.log(2.0)
        return SurrogateLoss(
            "logistic",
            lambda x: np.log1p(np.exp(-x)) / ln2,
            lambda x: -1.0 / ((1.0 + np.exp(x)) * ln2),
            d_plus_at_0=-1.0 / (2.0 * ln2),
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
                d_plus_at_0=-1.0,
                lipschitz=1.0,
            )
        # truncated_margin: (1 - C x)_+ = hinge(C x)
        return SurrogateLoss(
            f"truncated_margin(C={C:g})",
            lambda x: np.maximum(1.0 - C * x, 0.0),
            lambda x: np.where(x < knee, -C, 0.0),
            d_plus_at_0=-C,
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
    _gram: np.ndarray | None = field(default=None, repr=False)

    @property
    def norm(self) -> float:
        G = self._gram if self._gram is not None else gram(
            self.kernel, self.support, check_psd=False
        )
        return math.sqrt(max(float(self.alpha @ gram_product(G, self.alpha)),
                             0.0))

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
        wts = wts / wts.sum()
    else:
        wts = np.full(len(y), 1.0 / len(y))
    return X, y, wts


def _linearization_bound(f, u, scores, b, gb, support, bias_box):
    """Lower bound on the optimum from the linearization at an iterate.

    For a convex objective, OPT >= f(z) + min over the feasible set of
    <grad, z' - z>.  With the loss-gradient weights u (grad = sum_i u_i times
    the i-th point's feature, and gb = sum u for the bias) that minimum is
    -support - bias_box |gb| less <grad, z> = u . scores + b gb, where
    support is the largest <grad, w'> over the norm ball.  This is the
    Frank-Wolfe duality gap (Jaggi, ICML 2013).
    """
    return f - float(u @ scores) - b * gb - support - bias_box * abs(gb)


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

    The gap certificate is the smaller of two bounds on best objective - OPT:
    the averaged-iterate bound of the first stage (later stages are heuristic
    step shrinking) and best objective - the best linearization lower bound
    over all iterates (_linearization_bound, with the support C sqrt(u' G u)
    of the step over the ball).  Both need a convex loss; the non-convex
    margin_loss gets no valid certificate.
    """
    if C < 0:
        raise LossError("norm bound must be >= 0")
    X, y, wts = _as_arrays(data)
    n = len(y)
    G = gram(kernel, X, check_psd=False)
    eig_floor = float(np.min(np.diag(G)))
    if eig_floor < -1e-8 * n:
        raise LossError("Gram diagonal negative beyond tolerance: invalid kernel")
    G[np.diag_indices_from(G)] += GRAM_JITTER

    bias_box = opts.bias_box
    wy = wts * y
    lip = loss.lipschitz if math.isfinite(loss.lipschitz) else 1.0
    radius = 2.0 * C + 2.0 * bias_box

    def objective_at(scores, b):
        margins = y * (scores + b)
        return margins, float(wts @ loss.value(margins))

    alpha, scores, b = np.zeros(n), np.zeros(n), 0.0
    margins, best_f = objective_at(scores, b)
    best = (alpha, b, scores, margins)
    lower = -math.inf
    cert = math.inf
    for stage in range(max(opts.n_restarts, 1)):
        R = radius / 2**stage
        (alpha, b, scores, margins), f = best, best_f
        avg_alpha, avg_b, avg_scores = np.zeros(n), 0.0, np.zeros(n)
        sum_eta = 0.0
        sum_eta2_g2 = 0.0
        lhat = max(lip, 1e-12)
        for t in range(1, opts.max_iters + 1):
            u = wy * loss.subgradient(margins)
            gb = float(u.sum())
            Gu = gram_product(G, u)
            # RKHS norm of the functional part sum u_i k(., x_i) of the step
            unorm = math.sqrt(max(float(u @ Gu), 0.0))
            lower = max(lower, _linearization_bound(f, u, scores, b, gb,
                                                    C * unorm, bias_box))
            gnorm = math.hypot(unorm, gb)
            lhat = max(lhat, gnorm)
            eta = R / (lhat * math.sqrt(t))
            alpha, scores = alpha - eta * u, scores - eta * Gu
            q = float(alpha @ scores)
            if q > C * C:
                scale = C / math.sqrt(q)
                alpha, scores = alpha * scale, scores * scale
            b = min(max(b - eta * gb, -bias_box), bias_box)
            sum_eta += eta
            sum_eta2_g2 += eta * eta * gnorm * gnorm
            avg_alpha += eta * alpha
            avg_b += eta * b
            avg_scores += eta * scores
            margins, f = objective_at(scores, b)
            if f < best_f:
                best, best_f = (alpha, b, scores, margins), f
        alpha, scores = avg_alpha / sum_eta, avg_scores / sum_eta
        q = float(alpha @ scores)
        if q > C * C:
            scale = C / math.sqrt(q)
            alpha, scores = alpha * scale, scores * scale
        b = min(max(avg_b / sum_eta, -bias_box), bias_box)
        margins, f = objective_at(scores, b)
        if f < best_f:
            best, best_f = (alpha, b, scores, margins), f
        if stage == 0:
            cert = (radius * radius + sum_eta2_g2) / (2.0 * sum_eta)
    cert = min(cert, best_f - lower)
    return KernelModel(
        support=X, alpha=best[0], b=float(best[1]), C=C, kernel=kernel,
        loss=loss, objective=best_f, gap_certificate=cert,
        converged=cert <= opts.eps_opt, _gram=G,
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
