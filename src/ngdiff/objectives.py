"""Loss definitions: NPO baseline loss and analytic two-task verification objectives.

The quadratic pair family gives a retain loss ``0.5 * ||theta - a||^2`` and a
forget loss that is either the mirror quadratic around ``b`` or the bounded
variant ``1 - exp(-0.5 * ||theta - b||^2)``.  The bounded form keeps
"maximize the forget loss" finite so trajectory tests have a well-defined
Pareto front; it is a test fixture, not part of the classification path.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .autodiff import (
    DimensionError,
    FlatGradient,
    Graph,
    NumericError,
)

UNBOUNDED_QUADRATIC = "unbounded_quadratic"
BOUNDED_EXP = "bounded_exp"
FORGET_KINDS = (UNBOUNDED_QUADRATIC, BOUNDED_EXP)

LOG_PROB_FLOOR = math.log(1e-12)


class UnboundedProblemError(ValueError):
    """The requested scalarization has no finite minimizer."""


class NpoLoss:
    """Forget-only preference loss against a frozen reference model.

    For a sample with true-label probability ``f`` under the live model and
    ``f_ref`` under the reference,

        loss = -(2 / beta) * mean(log sigmoid(-beta * log(f / f_ref)))

    The reference side is treated as a constant: no gradient flows into it.
    The loss is a function of the kernel's true-label log-probabilities, so
    its gradient is the kernel's backward pass given ``dL/dlp``: ``score``
    takes the log-probabilities of a kernel pass, such as one the loop runs
    for a lockstep group of runs, and ``upstream`` gives ``dL/dlp``.

    ``beta`` is the inverse temperature and ``reference_params`` the frozen
    pre-unlearning snapshot.  ``clamp_warnings`` counts batches in which a
    reference log-probability had to be clamped at log(1e-12).
    """

    def __init__(self, model: Graph, beta: float, reference_params: np.ndarray):
        if not beta > 0:
            raise ValueError("beta must be positive")
        if reference_params.shape != (model.size,):
            raise DimensionError(
                f"reference snapshot of shape {reference_params.shape}, the model takes ({model.size},)"
            )
        self.beta = beta
        self.reference_params = reference_params
        self.clamp_warnings = 0
        self._graph = model
        self._z: np.ndarray | None = None

    def reference_logprobs(self, batch) -> np.ndarray:
        """True-label log-probabilities under the frozen reference, clamped below."""
        self._graph.run(self.reference_params, self._graph.bind(batch))
        lp = np.array(self._graph.lp)
        if np.any(lp < LOG_PROB_FLOOR):
            self.clamp_warnings += 1
            lp = np.maximum(lp, LOG_PROB_FLOOR)
        return lp

    def score(self, lp: np.ndarray, ref_logprobs) -> float:
        """The loss of the live model's true-label log-probabilities ``lp``.

        ``ref_logprobs`` are the reference's for the same rows.  Keeps what
        ``upstream`` needs.
        """
        ref = np.asarray(ref_logprobs, dtype=np.float64)
        if ref.shape != lp.shape:
            raise DimensionError(f"reference log-probs shape {ref.shape} does not match {lp.shape}")
        with np.errstate(all="ignore"):
            z = float(-self.beta) * (lp - ref)
            value = float(-2.0 / self.beta) * np.mean(-np.logaddexp(0.0, -z))
        if not (np.isfinite(z).all() and math.isfinite(value)):
            raise NumericError("non-finite NPO loss")
        self._z = z
        return float(value)

    def upstream(self) -> np.ndarray:
        """``dL/dlp`` of the last ``score``: the upstream gradient ``Graph.backward`` takes."""
        # d loss / d lp = (-beta) * sigmoid(-z) * (-(2 / beta) / n)
        per_row = float(-2.0 / self.beta) / self._z.shape[0]
        return float(-self.beta) * (np.exp(-np.logaddexp(0.0, self._z)) * per_row)

    def loss(self, params: np.ndarray, batch, ref_logprobs: np.ndarray | None = None) -> float:
        if ref_logprobs is None:
            ref_logprobs = self.reference_logprobs(batch)
        self._graph.run(params, self._graph.bind(batch))
        return self.score(self._graph.lp, ref_logprobs)

    def loss_and_grad(
        self, params: np.ndarray, batch, ref_logprobs: np.ndarray | None = None
    ) -> tuple[float, FlatGradient]:
        value = self.loss(params, batch, ref_logprobs)
        return value, self._graph.backward(self.upstream())[0]


# 0.5 * s for a sum of squares s, mapped over a group's rows without a Python frame
_half = (0.5).__mul__


class QuadPairProblem(namedtuple("QuadPairProblem", "a b forget_kind")):
    """Two-task objective with retain anchor ``a`` and forget anchor ``b``.

    Its losses and gradients take a ``theta`` of ``dim`` entries and refuse
    any other shape.  The ``*_loss_grads`` forms take a matrix with one
    ``theta`` per row, a run axis in front, as a lockstep group of runs holds
    them: one subtraction serves every row, and every sum of squares is its
    row's own ``ddot``, so each row's values are bit for bit those of a lone
    ``theta``.
    """

    __slots__ = ()

    def __new__(cls, a, b, forget_kind=UNBOUNDED_QUADRATIC):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("anchors must be 1-D vectors of equal length")
        if np.array_equal(a, b):
            raise ValueError("anchors must differ")
        if forget_kind not in FORGET_KINDS:
            raise ValueError(f"forget_kind must be one of {FORGET_KINDS}")
        a.flags.writeable = False
        b.flags.writeable = False
        return super().__new__(cls, a, b, forget_kind)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def _theta(self, theta) -> np.ndarray:
        arr = np.asarray(theta, dtype=np.float64)
        if arr.shape != self.a.shape:
            raise ValueError(f"theta must have shape ({self.dim},)")
        return arr

    def retain_loss_grads(self, thetas: np.ndarray) -> tuple[list, np.ndarray, list]:
        """Each row's retain loss, the read-only gradient matrix and each gradient row's sum of squares.

        All three come from one ``thetas - a``; the sum of squares is the
        gradient's, so a caller that checks or normalizes it need not take
        it again.
        """
        d = thetas - self.a[None]  # a row of a: a group of one needs no broadcast
        d.flags.writeable = False
        # vecdot takes each row's ddot, the bits of row.dot(row), in one call
        sq = np.vecdot(d, d).tolist()
        return list(map(_half, sq)), d, sq

    def forget_loss_grads(self, thetas: np.ndarray) -> tuple[list, np.ndarray, list]:
        """Each row's forget loss, the read-only gradient matrix and each gradient row's
        sum of squares, from one ``thetas - b``; the bounded form scales each row by its
        own scalar ``math.exp``."""
        d = thetas - self.b[None]
        sq = np.vecdot(d, d).tolist()
        q = list(map(_half, sq))
        if self.forget_kind == UNBOUNDED_QUADRATIC:
            d.flags.writeable = False
            return q, d, sq
        g = np.array([math.exp(-x) for x in q])[:, None] * d
        g.flags.writeable = False
        return [-math.expm1(-x) for x in q], g, np.vecdot(g, g).tolist()

    def retain_loss_grad(self, theta) -> tuple[float, np.ndarray, float]:
        """The retain loss, its gradient and the gradient's sum of squares at one ``theta``."""
        (loss,), (g,), (sq,) = self.retain_loss_grads(self._theta(theta)[None])
        return loss, g, sq

    def forget_loss_grad(self, theta) -> tuple[float, np.ndarray, float]:
        """The forget loss, its gradient and the gradient's sum of squares at one ``theta``."""
        (loss,), (g,), (sq,) = self.forget_loss_grads(self._theta(theta)[None])
        return loss, g, sq

    def retain_loss(self, theta) -> float:
        return self.retain_loss_grad(theta)[0]

    def retain_grad(self, theta) -> np.ndarray:
        return self.retain_loss_grad(theta)[1]

    def forget_loss(self, theta) -> float:
        return self.forget_loss_grad(theta)[0]

    def forget_grad(self, theta) -> np.ndarray:
        return self.forget_loss_grad(theta)[1]


def lsp_minimizer(problem: QuadPairProblem, c: float) -> np.ndarray:
    """Closed-form minimizer ``(c*a - (1-c)*b) / (2c - 1)`` of the scalarized objective.

    Only defined for the unbounded quadratic pair with ``c > 0.5``, where the
    scalarization is strictly convex (Hessian ``(2c - 1) * I``).
    """
    if problem.forget_kind != UNBOUNDED_QUADRATIC:
        raise UnboundedProblemError("closed form requires the unbounded quadratic pair")
    if not 0.5 < c <= 1.0:
        raise UnboundedProblemError(
            f"scalarized objective is unbounded below for c={c} (needs c > 0.5)"
        )
    return (c * problem.a - (1.0 - c) * problem.b) / (2.0 * c - 1.0)
