"""Probe-based automatic learning rate selection along the update direction.

The retain loss is sampled at ``theta - probe*d``, ``theta``, and
``theta + probe*d`` with gradient-free forward passes, a parabola
``Q(x) = a2*x^2 + a1*x + a0`` is fitted through the three points
(``x`` is the signed multiple of ``d`` added to ``theta``), and the step
size for the descent update ``theta - eta*d`` is ``eta* = a1 / (2*a2)``.
On an exactly quadratic loss this recovers ``(g.d) / (d.H.d)`` regardless
of probe size; elsewhere the central differences are accurate to
``O(probe^2)``.

The fit can fail to justify a step: non-positive curvature or a
non-positive minimizer means the direction does not locally descend the
retain loss at this scale, and a probe whose square rounds to 0 measures no
curvature.  All three are guard trips - the previous step size is kept and a
counter is bumped.  A fit is also trusted only near the scale it was probed
at: once a step size has been fitted, an update may raise it at most
``ETA_GROWTH_CAP``-fold, and a capped update is a guard trip too.  The first
fit, probed at ``probe_epsilon``, is not capped.  Updates run on a fixed
cadence (every ``update_period`` steps, the step-0 probe included) so the
probe overhead is amortized.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple

from .autodiff import FlatGradient, ParameterVector, axpy_update

CURVATURE_FLOOR = 1e-12
# the most one update may multiply a fitted step size by; an exact line
# minimum can lie 3.44x past the current step size on the criterion-3 bowls
ETA_GROWTH_CAP = 4.0


class ProbeError(RuntimeError):
    """Probe losses stayed non-finite after all retries."""


class QuadraticFit(NamedTuple):
    """Parabola through three equally spaced loss samples along a direction."""

    probe: float
    loss_minus: float
    loss_zero: float
    loss_plus: float
    a2: float
    a1: float
    a0: float


class LrState(
    namedtuple(
        "LrState", "eta update_period probe_epsilon fitted guard_trips",
        defaults=(None, 10, 1e-3, None, 0),
    )
):
    """Step-size state threaded through the unlearning loop.

    ``eta`` is None until the first successful fit; until then the acting
    step size (and probe magnitude) falls back to ``probe_epsilon``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.eta is not None and not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")
        if self.update_period < 1:
            raise ValueError("update_period must be >= 1")
        if not self.probe_epsilon > 0:
            raise ValueError("probe_epsilon must be positive")
        return self

    @property
    def step_size(self) -> float:
        return self.eta if self.eta is not None else self.probe_epsilon


def probe_losses(
    retain_loss: Callable[[ParameterVector], float],
    params: ParameterVector,
    direction: FlatGradient,
    probe: float,
    loss_zero: float | None = None,
) -> tuple[float, float, float, float]:
    """Sample the retain loss at ``theta -+ probe*d`` and ``theta``.

    Returns ``(loss_minus, loss_zero, loss_plus, probe_used)``.  A non-finite
    probe loss shrinks the probe tenfold and retries, at most three times.
    ``loss_zero`` may be passed in to reuse the already computed current
    loss.  ``params`` is never mutated, so the caller's parameters are
    bit-identical before and after probing.
    """
    if not probe > 0:
        raise ValueError("probe must be positive")
    if loss_zero is None:
        loss_zero = retain_loss(params)
    if not math.isfinite(loss_zero):
        raise ProbeError("current retain loss is non-finite")
    for _ in range(4):
        try:
            l_minus = retain_loss(axpy_update(params, direction, probe))
            l_plus = retain_loss(axpy_update(params, direction, -probe))
        except ArithmeticError:
            l_minus = l_plus = math.inf
        if math.isfinite(l_minus) and math.isfinite(l_plus):
            return l_minus, loss_zero, l_plus, probe
        probe /= 10.0
    raise ProbeError("probe losses stayed non-finite after shrinking 3 times")


def fit_quadratic(probe: float, l_minus: float, l_zero: float, l_plus: float) -> QuadraticFit:
    """Interpolating parabola through ``(-probe, 0, +probe) -> (l-, l0, l+)``.

    ``a1`` is the central-difference estimate of the directional derivative
    ``g.d``; ``a2`` estimates half the directional curvature ``d.H.d / 2``.
    """
    if not probe > 0:
        raise ValueError("probe must be positive")
    a1 = (l_plus - l_minus) / (2.0 * probe)
    # a probe below about 1.5e-162 measures no curvature: the divisor rounds to 0
    divisor = 2.0 * probe * probe
    a2 = (l_plus - 2.0 * l_zero + l_minus) / divisor if divisor else math.nan
    return QuadraticFit(probe, l_minus, l_zero, l_plus, a2=a2, a1=a1, a0=l_zero)


def optimal_lr(fit: QuadraticFit) -> float | None:
    """Step size minimizing the fitted parabola under ``theta - eta*d``.

    Returns None (guard) when the fitted curvature is at or below
    ``CURVATURE_FLOOR`` or not a number, or the minimizer is non-positive;
    stepping backwards along the update direction would raise the retain loss.
    """
    if not fit.a2 > CURVATURE_FLOOR:
        return None
    eta = fit.a1 / (2.0 * fit.a2)
    return eta if eta > 0 else None


def maybe_update(
    state: LrState,
    step: int,
    retain_loss: Callable[[ParameterVector], float],
    params: ParameterVector,
    direction: FlatGradient,
    loss_zero: float | None = None,
) -> LrState:
    """Refresh the step size on the update cadence; otherwise return ``state``.

    Off-cadence steps perform zero extra forward passes.  On cadence, the
    probe magnitude is the current step size; guard trips keep the previous
    step size, and a capped update takes ``ETA_GROWTH_CAP`` times it.
    """
    if step < 0:
        raise ValueError("step must be >= 0")
    if step % state.update_period != 0:
        return state
    try:
        l_minus, l_zero, l_plus, probe = probe_losses(
            retain_loss, params, direction, state.step_size, loss_zero
        )
    except ProbeError:
        return _replace(state, guard_trips=state.guard_trips + 1)
    fit = fit_quadratic(probe, l_minus, l_zero, l_plus)
    eta = optimal_lr(fit)
    if eta is None:
        return _replace(state, fitted=fit, guard_trips=state.guard_trips + 1)
    if state.fitted is not None and state.eta is not None and eta > ETA_GROWTH_CAP * state.eta:
        return _replace(
            state, eta=ETA_GROWTH_CAP * state.eta, fitted=fit, guard_trips=state.guard_trips + 1
        )
    return _replace(state, eta=eta, fitted=fit)


def _replace(state: LrState, **changes) -> LrState:
    """``state`` with ``changes``, built through the checks that ``state._replace`` skips."""
    return LrState(**{**state._asdict(), **changes})
