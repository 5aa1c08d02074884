"""Gradient combination rules for the two-task unlearning update.

Every rule reduces to a per-step coefficient ``c_t`` applied as

    g_un = c_t * g_retain - (1 - c_t) * g_forget

except NGDiff, whose emitted direction is the unnormalized difference of
unit gradients ``g_retain/|g_retain| - g_forget/|g_forget|``.  That vector
is a positive multiple (factor ``1/|g_retain| + 1/|g_forget|``) of the
coefficient form with ``c_t = (1/|g_retain|) / (1/|g_retain| + 1/|g_forget|)``,
so the scale difference is absorbed by the learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import FlatGradient, _adopt_vector, _same_layout
from .objectives import LossPair

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

# Below this norm a gradient is treated as zero: its normalized term becomes
# the zero vector and the output is flagged degenerate.
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class CombinerSpec:
    """Which combination rule to run, plus its rule-specific knobs.

    ``c`` is the static weight for ``gdiff`` and the asymptotic weight for
    ``scheduled_gdiff`` (where ``c_t = c + amplitude * decay**t``, clipped to
    [0, 1]).  ``rng_seed`` keys the RLW draw stream.  The ranges of ``c``,
    ``amplitude`` and ``decay`` are checked where a config is parsed
    (``engine.METHOD_FIELDS``).
    """

    kind: str
    c: float | None = None
    rng_seed: int | None = None
    amplitude: float = 0.0
    decay: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown combiner kind {self.kind!r}")
        if self.kind in (GDIFF, SCHEDULED_GDIFF) and self.c is None:
            raise ValueError(f"{self.kind} requires c")
        if self.kind == RLW and self.rng_seed is None:
            raise ValueError("rlw requires rng_seed")


class CombinerOutput(NamedTuple):
    """Combined direction plus the diagnostics the loop records.

    A named tuple, because the loop builds one per step.
    """

    direction: FlatGradient
    coefficient: float
    norm_retain: float
    norm_forget: float
    degenerate: bool = False
    clamped: bool = False


def _clamp01(c: float) -> tuple[float, bool]:
    if c < 0.0:
        return 0.0, True
    if c > 1.0:
        return 1.0, True
    return c, False


def combine(
    spec: CombinerSpec,
    g_r: FlatGradient,
    g_f: FlatGradient,
    losses: LossPair | None = None,
    step: int = 0,
) -> CombinerOutput:
    """Apply the selected rule to one pair of per-task gradients.

    ``losses`` is required for ``lossnorm`` (both losses strictly positive).
    ``step`` indexes the RLW draw stream and the scheduled coefficient; all
    randomness is keyed by ``(rng_seed, step)`` so runs are reproducible and
    concurrent runs share no state.
    """
    _same_layout(g_r.layout, g_f.layout, "combine")
    nr = g_r.norm
    nf = g_f.norm
    degenerate = False
    clamped = False
    kind = spec.kind

    if kind == NGDIFF:
        unit_r = g_r.data / nr if nr >= NORM_FLOOR else np.zeros_like(g_r.data)
        unit_f = g_f.data / nf if nf >= NORM_FLOOR else np.zeros_like(g_f.data)
        degenerate = nr < NORM_FLOOR or nf < NORM_FLOOR
        direction = unit_r - unit_f
        if degenerate:
            coefficient = math.nan
        else:
            inv_r, inv_f = 1.0 / nr, 1.0 / nf
            coefficient = inv_r / (inv_r + inv_f)
    else:
        if kind == GD:
            c = 1.0
        elif kind == GA:
            c = 0.0
        elif kind == GDIFF:
            c = spec.c
        elif kind == SCHEDULED_GDIFF:
            c, clamped = _clamp01(spec.c + spec.amplitude * spec.decay**step)
        elif kind == LOSSNORM:
            if losses is None:
                raise ValueError("lossnorm requires current loss values")
            if losses.retain_loss <= 0.0 or losses.forget_loss <= 0.0:
                raise ValueError("lossnorm requires strictly positive losses")
            c = losses.forget_loss / (losses.forget_loss + losses.retain_loss)
        elif kind == RLW:
            lam = np.random.default_rng([spec.rng_seed, step]).standard_normal(2)
            c = 1.0 / (1.0 + math.exp(lam[1] - lam[0]))
        elif kind == PCGRAD:
            # ratio c/(1-c) = 1 + g_f.g_r / |g_r|^2
            if nr < NORM_FLOOR:
                degenerate = True
                c = 0.5
            else:
                ratio = 1.0 + float(g_f.data @ g_r.data) / (nr * nr)
                c, clamped = _clamp01(ratio / (1.0 + ratio)) if ratio != -1.0 else (1.0, True)
        elif kind == IMTLG:
            if nr < NORM_FLOOR or nf < NORM_FLOOR:
                degenerate = True
                c = 0.5
            else:
                u = g_f.data / nf - g_r.data / nr
                denom = float((g_f.data - g_r.data) @ u)
                if abs(denom) < NORM_FLOOR:
                    degenerate = True
                    c = 0.5
                else:
                    c, clamped = _clamp01(float(g_f.data @ u) / denom)
        else:
            raise ValueError(f"unknown combiner kind {kind!r}")
        coefficient = c
        direction = c * g_r.data - (1.0 - c) * g_f.data

    return CombinerOutput(
        direction=_adopt_vector(FlatGradient, direction, g_r.layout, "gradient"),
        coefficient=coefficient,
        norm_retain=nr,
        norm_forget=nf,
        degenerate=degenerate,
        clamped=clamped,
    )
