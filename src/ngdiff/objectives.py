"""Loss definitions: NPO baseline loss and analytic two-task verification objectives.

The quadratic pair family gives a retain loss ``0.5 * ||theta - a||^2`` and a
forget loss that is either the mirror quadratic around ``b`` or the bounded
variant ``1 - exp(-0.5 * ||theta - b||^2)``.  The bounded form keeps
"maximize the forget loss" finite so trajectory tests have a well-defined
Pareto front; it is a test fixture, not part of the classification path.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DimensionError,
    FlatGradient,
    Graph,
    NumericError,
    ParameterLayout,
    ParameterVector,
    Segment,
    forward,
)

UNBOUNDED_QUADRATIC = "unbounded_quadratic"
BOUNDED_EXP = "bounded_exp"
FORGET_KINDS = (UNBOUNDED_QUADRATIC, BOUNDED_EXP)

LOG_PROB_FLOOR = math.log(1e-12)


class UnboundedProblemError(ValueError):
    """The requested scalarization has no finite minimizer."""


@dataclass(frozen=True)
class LossPair:
    """Current retain/forget scalar losses, as loss normalization reads them."""

    retain_loss: float
    forget_loss: float

    def __post_init__(self):
        if not (math.isfinite(self.retain_loss) and math.isfinite(self.forget_loss)):
            raise ValueError("losses must be finite")


@dataclass
class NpoConfig:
    """Inverse temperature and the frozen pre-unlearning reference snapshot.

    ``clamp_warnings`` counts batches in which a reference log-probability
    had to be clamped at log(1e-12).
    """

    beta: float
    reference_params: ParameterVector
    clamp_warnings: int = 0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")


class NpoLoss:
    """Forget-only preference loss against a frozen reference model.

    For a sample with true-label probability ``f`` under the live model and
    ``f_ref`` under the reference,

        loss = -(2 / beta) * mean(log sigmoid(-beta * log(f / f_ref)))

    The reference side is treated as a constant: no gradient flows into it.
    The loss is a function of the kernel's true-label log-probabilities, so
    its gradient is the kernel's backward pass given ``dL/dlp``.  The
    forward that ``loss`` runs also gives the batch's mean cross-entropy,
    kept as ``cross_entropy``.
    """

    def __init__(self, model: Graph, cfg: NpoConfig):
        if cfg.reference_params.layout != model.layout:
            raise ValueError("reference snapshot layout does not match the model")
        self.cfg = cfg
        self._graph = copy.copy(model)  # same program and layout, its own forward cache
        self._z: np.ndarray | None = None
        self.cross_entropy: float | None = None

    def reference_logprobs(self, batch) -> np.ndarray:
        """True-label log-probabilities under the frozen reference, clamped below."""
        forward(self._graph, self.cfg.reference_params, batch)
        lp = np.array(self._graph.lp)
        if np.any(lp < LOG_PROB_FLOOR):
            self.cfg.clamp_warnings += 1
            lp = np.maximum(lp, LOG_PROB_FLOOR)
        return lp

    def loss(self, params: ParameterVector, batch, ref_logprobs: np.ndarray | None = None) -> float:
        if ref_logprobs is None:
            ref_logprobs = self.reference_logprobs(batch)
        cross_entropy = forward(self._graph, params, batch)
        lp = self._graph.lp
        ref = np.asarray(ref_logprobs, dtype=np.float64)
        if ref.shape != lp.shape:
            raise DimensionError(f"reference log-probs shape {ref.shape} does not match {lp.shape}")
        with np.errstate(all="ignore"):
            z = float(-self.cfg.beta) * (lp - ref)
            value = float(-2.0 / self.cfg.beta) * np.mean(-np.logaddexp(0.0, -z))
        if not (np.isfinite(z).all() and math.isfinite(value)):
            raise NumericError("non-finite NPO loss")
        self._z = z
        self.cross_entropy = cross_entropy
        return float(value)

    def loss_and_grad(
        self, params: ParameterVector, batch, ref_logprobs: np.ndarray | None = None
    ) -> tuple[float, FlatGradient]:
        value = self.loss(params, batch, ref_logprobs)
        # d loss / d lp = (-beta) * sigmoid(-z) * (-(2 / beta) / n)
        per_row = float(-2.0 / self.cfg.beta) / self._z.shape[0]
        dlp = float(-self.cfg.beta) * (np.exp(-np.logaddexp(0.0, self._z)) * per_row)
        return value, self._graph.backward(dlp)


def theta_layout(dim: int) -> ParameterLayout:
    """Single-segment layout for analytic problems over a bare vector."""
    return ParameterLayout((Segment("theta", (dim,), 0),))


@dataclass(frozen=True)
class QuadPairProblem:
    """Two-task objective with retain anchor ``a`` and forget anchor ``b``."""

    a: np.ndarray
    b: np.ndarray
    forget_kind: str = UNBOUNDED_QUADRATIC

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("anchors must be 1-D vectors of equal length")
        if np.array_equal(a, b):
            raise ValueError("anchors must differ")
        if self.forget_kind not in FORGET_KINDS:
            raise ValueError(f"forget_kind must be one of {FORGET_KINDS}")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def layout(self) -> ParameterLayout:
        return theta_layout(self.dim)

    def _theta(self, theta) -> np.ndarray:
        arr = theta.data if isinstance(theta, ParameterVector) else np.asarray(theta, dtype=np.float64)
        if arr.shape != self.a.shape:
            raise ValueError(f"theta must have shape ({self.dim},)")
        return arr

    def retain_loss_grad(self, theta) -> tuple[float, np.ndarray]:
        """The retain loss and its gradient, both from one ``theta - a``."""
        d = self._theta(theta) - self.a
        # d.dot(d) gives the bits of d @ d (both are BLAS ddot) without the ufunc overhead
        return 0.5 * float(d.dot(d)), d

    def forget_loss_grad(self, theta) -> tuple[float, np.ndarray]:
        """The forget loss and its gradient, both from one ``theta - b``."""
        d = self._theta(theta) - self.b
        q = 0.5 * float(d.dot(d))
        if self.forget_kind == UNBOUNDED_QUADRATIC:
            return q, d
        return -math.expm1(-q), math.exp(-q) * d

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
