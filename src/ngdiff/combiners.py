"""Gradient combination rules for the two-task unlearning update.

Every rule reduces to a per-step coefficient ``c_t`` applied as

    g_un = c_t * g_retain - (1 - c_t) * g_forget

except NGDiff, whose emitted direction is the unnormalized difference of
unit gradients ``g_retain/|g_retain| - g_forget/|g_forget|``.  That vector
is a positive multiple (factor ``1/|g_retain| + 1/|g_forget|``) of the
coefficient form with ``c_t = (1/|g_retain|) / (1/|g_retain| + 1/|g_forget|)``,
so the scale difference is absorbed by the learning rate.

A rule (``coefficient``) is taken from one run's gradients, and
``coefficients`` takes it over the rows of a lockstep group that share a
kind, one entry per row; ``group_coefficients`` takes every kind of
a group, and ``cosines`` each row pair's cosine.  The two direction
formulas (``directions``) are broadcast operations over the group's
gradient matrices, one row per run.  Every entry is one operation on the
same operands as a lone run's, so each value and each direction row is
bit for bit its lone run's.  ``combine`` applies a rule and a formula to
one pair of gradients, each a read-only flat array as ``Graph.backward``
returns one, and takes their norms itself.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv
from typing import NamedTuple

import numpy as np

from .autodiff import _adopt_vector, _column

GD = "gd"
GA = "ga"
GDIFF = "gdiff"
LOSSNORM = "lossnorm"
RLW = "rlw"
PCGRAD = "pcgrad"
IMTLG = "imtlg"
NGDIFF = "ngdiff"
SCHEDULED_GDIFF = "scheduled_gdiff"

KINDS = (GD, GA, GDIFF, LOSSNORM, RLW, PCGRAD, IMTLG, NGDIFF, SCHEDULED_GDIFF)
CONSTANT = (GD, GA, GDIFF)  # the rules whose coefficient is the same at every step

# Below this norm a gradient is treated as zero: its normalized term becomes
# the zero vector and the output is flagged degenerate.
NORM_FLOOR = 1e-12


class CombinerOutput(NamedTuple):
    """Combined direction plus the diagnostics the loop records."""

    direction: np.ndarray
    coefficient: float
    degenerate: bool = False
    clamped: bool = False


def _clamp01(c: float) -> tuple[float, bool, bool]:
    """``(c clipped to [0, 1], not degenerate, whether it was clipped)``."""
    if c < 0.0:
        return 0.0, False, True
    if c > 1.0:
        return 1.0, False, True
    return c, False, False


def coefficient(spec, g_r, g_f, norm_r: float, norm_f: float, losses=None, step: int = 0, seed: int = 0):
    """The rule ``spec.kind`` at one step: ``(coefficient, degenerate, clamped)``.

    ``g_r`` and ``g_f`` are the two task gradients as flat arrays, and
    ``norm_r`` and ``norm_f`` their norms.  ``spec`` is a config's
    ``engine.MethodSpec``, whose field table checks the knobs: ``c`` is the
    static weight for ``gdiff`` and the asymptotic weight for
    ``scheduled_gdiff``, where ``c_t = c + amplitude * decay**t``, clipped to
    [0, 1].  ``losses`` is the (retain, forget) pair of current loss values
    that ``lossnorm`` requires, both finite and strictly positive.  ``step``
    indexes the RLW draw stream and the scheduled coefficient; all
    randomness is keyed by ``(seed, step)`` so runs are reproducible and
    concurrent runs share no state.  NGDiff's coefficient is that of its
    coefficient form, nan when a gradient is degenerate; its direction is
    the unit form (``directions``).
    """
    kind = spec.kind
    if kind == GDIFF:
        return spec.c, False, False
    if kind == NGDIFF:
        if norm_r < NORM_FLOOR or norm_f < NORM_FLOOR:
            return math.nan, True, False
        inv_r, inv_f = 1.0 / norm_r, 1.0 / norm_f
        return inv_r / (inv_r + inv_f), False, False
    if kind == GD:
        return 1.0, False, False
    if kind == GA:
        return 0.0, False, False
    if kind == SCHEDULED_GDIFF:
        return _clamp01(spec.c + spec.amplitude * spec.decay**step)
    if kind == LOSSNORM:
        if losses is None:
            raise ValueError("lossnorm requires current loss values")
        loss_r, loss_f = losses
        if not (0.0 < loss_r < math.inf and 0.0 < loss_f < math.inf):
            raise ValueError("lossnorm requires finite, strictly positive losses")
        return loss_f / (loss_f + loss_r), False, False
    if kind == RLW:
        lam = np.random.default_rng([seed, step]).standard_normal(2)
        return 1.0 / (1.0 + math.exp(lam[1] - lam[0])), False, False
    if kind == PCGRAD:
        # ratio c/(1-c) = 1 + g_f.g_r / |g_r|^2
        if norm_r < NORM_FLOOR:
            return 0.5, True, False
        ratio = 1.0 + float(g_f @ g_r) / (norm_r * norm_r)
        return _clamp01(ratio / (1.0 + ratio)) if ratio != -1.0 else (1.0, False, True)
    if kind == IMTLG:
        if norm_r < NORM_FLOOR or norm_f < NORM_FLOOR:
            return 0.5, True, False
        u = g_f / norm_f - g_r / norm_r
        denom = float((g_f - g_r) @ u)
        if abs(denom) < NORM_FLOOR:
            return 0.5, True, False
        return _clamp01(float(g_f @ u) / denom)
    raise ValueError(f"unknown combiner kind {kind!r}")


def coefficients(kind, specs, g_r, g_f, norms_r, norms_f, losses, step, seeds) -> tuple:
    """The rule ``kind`` over the rows of a lockstep group that take it:
    ``(coefficients, degenerate, clamped)``, one tuple each.

    Each row's entries are ``coefficient``'s, from one entry per row of
    ``specs``, the gradient rows ``g_r`` and ``g_f``, their norms,
    ``losses`` and the method ``seeds``; ``step`` is the group's.
    """
    return tuple(zip(*map(coefficient, specs, g_r, g_f, norms_r, norms_f, losses, repeat(step), seeds)))


def group_coefficients(rules, coeffs, step, columns, failed) -> list:
    """``coeffs``, a lockstep group's coefficient column, with each of ``rules`` taken by ``coefficients``.

    A rule is ``(kind, rows, specs, seeds)``: the group's rows that take
    ``kind`` (None for all of them) and their specs and method seeds.
    ``columns`` are the group's gradient rows ``g_r`` and ``g_f``, their
    norms and the retain and forget losses.  A kind whose rule raises is
    taken again row by row, so that only a row that raises gets its error in
    ``failed``, by row, as its lone run would.
    """
    coeffs = list(coeffs)
    for kind, rows, specs, seeds in rules:
        *args, loss_r, loss_f = columns if rows is None else [[c[i] for i in rows] for c in columns]
        # cross-entropy on a saturated minibatch can round to exactly 0;
        # the loss-normalization weights need a strictly positive floor
        if kind == LOSSNORM:
            args.append(list(zip(map(max, loss_r, repeat(1e-12)), map(max, loss_f, repeat(1e-12)))))
        else:
            args.append([None] * len(specs))
        try:
            column = coefficients(kind, specs, *args, step, seeds)[0]
        except Exception:
            column = []
            for j, row in enumerate(zip(specs, *args)):
                try:
                    column.append(coefficient(*row, step, seeds[j])[0])
                except Exception as exc:
                    failed.setdefault(j if rows is None else rows[j], exc)
                    column.append(0.0)
        if rows is None:
            return column
        for i, c in zip(rows, column):
            coeffs[i] = c
    return coeffs


def cosines(g_r, g_f, norms_r, norms_f) -> list:
    """The cosine of each row pair of the gradient matrices, nan where a norm is 0 or nan.

    Each dot is the pair's ddot, the bits of ``row_r.dot(row_f)``; the
    product of two positive norms, each the root of a sum of squares, is positive.
    """
    products = list(map(mul, norms_r, norms_f))
    dots = np.vecdot(g_r, g_f).tolist()
    if min(products) > 0:
        return list(map(truediv, dots, products))
    return [dot / product if product > 0 else math.nan for dot, product in zip(dots, products)]


def directions(coefficients, g_r: np.ndarray, g_f: np.ndarray, norms_r, norms_f, normalized=None) -> np.ndarray:
    """The combined direction of each row of the gradient matrices ``g_r`` and ``g_f``.

    A row takes the coefficient form ``c*g_r - (1-c)*g_f`` with its entry of
    ``coefficients``, or, where ``normalized`` (a bool per row, None for
    none) is true, NGDiff's ``g_r/|g_r| - g_f/|g_f|`` with its entries of
    ``norms_r`` and ``norms_f``, a term whose norm is below ``NORM_FLOOR``
    being zero.  The result is a fresh matrix; a row of non-finite entries
    is the caller's to refuse.
    """
    if normalized is None:
        c = _column(coefficients)
        return c * g_r - (1.0 - c) * g_f
    unit = _units(g_r, norms_r) - _units(g_f, norms_f)
    if all(normalized):
        return unit
    c = _column(coefficients)
    return np.where(np.array(normalized)[:, None], unit, c * g_r - (1.0 - c) * g_f)


def _units(g: np.ndarray, norms) -> np.ndarray:
    """Each row of ``g`` over its norm; a row whose norm is below ``NORM_FLOOR`` is zero."""
    if min(norms) >= NORM_FLOOR:
        return g / _column(norms)
    small = [norm < NORM_FLOOR for norm in norms]
    unit = g / np.array([1.0 if s else norm for s, norm in zip(small, norms)])[:, None]
    unit[small] = 0.0
    return unit


def combine(
    spec,
    g_r: np.ndarray,
    g_f: np.ndarray,
    losses: tuple[float, float] | None = None,
    step: int = 0,
    seed: int = 0,
) -> CombinerOutput:
    """Apply the rule ``spec.kind`` to one pair of per-task gradients (see ``coefficient``)."""
    norm_r, norm_f = math.sqrt(g_r.dot(g_r)), math.sqrt(g_f.dot(g_f))
    c, degenerate, clamped = coefficient(spec, g_r, g_f, norm_r, norm_f, losses, step, seed)
    normalized = [True] if spec.kind == NGDIFF else None
    (direction,) = directions([c], g_r[None], g_f[None], [norm_r], [norm_f], normalized)
    return CombinerOutput(
        direction=_adopt_vector(direction, "gradient"),
        coefficient=c,
        degenerate=degenerate,
        clamped=clamped,
    )
