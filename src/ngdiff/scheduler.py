"""Probe-based automatic learning rate selection along the update direction.

The retain loss is sampled at ``theta - probe*d``, ``theta``, and
``theta + probe*d`` with gradient-free forward passes, a parabola
``Q(x) = a2*x^2 + a1*x + loss_zero`` is fitted through the three points
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
fit is not capped.  Updates run on the cadence of the run's ``LrConfig``
(every ``lr.update_period`` steps, the step-0 probe included) so the probe
overhead is amortized.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import axpy_update

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


class LrState(NamedTuple):
    """Step-size state threaded through the unlearning loop.

    ``eta`` starts as the run's ``lr.eta`` and is None until the first fit
    when that is omitted; ``step_size`` gives the step size that acts.
    """

    eta: float | None
    fitted: QuadraticFit | None = None
    guard_trips: int = 0


def step_size(state: LrState, lr) -> float:
    """The acting step size under the run's ``LrConfig`` ``lr``: ``state.eta``,
    or ``lr.probe_epsilon`` until the first fit when ``lr.eta`` is omitted."""
    return state.eta if state.eta is not None else lr.probe_epsilon


def probe_losses(
    retain_loss: Callable[[np.ndarray], float],
    params: np.ndarray,
    direction: np.ndarray,
    probe: float,
    loss_zero: float,
) -> tuple[float, float, float, float]:
    """Sample the retain loss at ``theta -+ probe*d`` and ``theta``.

    Returns ``(loss_minus, loss_zero, loss_plus, probe_used)``.  A non-finite
    probe loss shrinks the probe tenfold and retries, at most three times.
    ``loss_zero`` is the current loss, which the caller has computed.  ``params``
    is never mutated, so the caller's parameters are bit-identical before and
    after probing.
    """
    if not probe > 0:
        raise ValueError("probe must be positive")
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
    return QuadraticFit(probe, l_minus, l_zero, l_plus, a2=a2, a1=a1)


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
    lr,
    retain_loss: Callable[[np.ndarray], float],
    params: np.ndarray,
    direction: np.ndarray,
    loss_zero: float,
) -> LrState:
    """Refresh the step size every ``lr.update_period`` steps; otherwise return ``state``.

    Off-cadence steps perform zero extra forward passes.  On cadence, the
    probe magnitude is the current step size; guard trips keep the previous
    step size, and a capped update takes ``ETA_GROWTH_CAP`` times it.
    """
    if step % lr.update_period != 0:
        return state
    trips = state.guard_trips + 1
    try:
        l_minus, l_zero, l_plus, probe = probe_losses(
            retain_loss, params, direction, step_size(state, lr), loss_zero
        )
    except ProbeError:
        return state._replace(guard_trips=trips)
    fit = fit_quadratic(probe, l_minus, l_zero, l_plus)
    eta = optimal_lr(fit)
    if eta is None:
        return LrState(state.eta, fit, trips)
    if state.fitted is not None and state.eta is not None and eta > ETA_GROWTH_CAP * state.eta:
        return LrState(ETA_GROWTH_CAP * state.eta, fit, trips)
    return LrState(eta, fit, state.guard_trips)
