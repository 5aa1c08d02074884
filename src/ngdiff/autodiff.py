"""Fused tanh-MLP log-prob kernel over dense float64 arrays.

A ``Graph`` is the fixed program of a tanh MLP classifier: layer ``i``
computes ``z_i = h_{i-1} @ w_i + b_i``, hidden layers apply ``tanh``, and
the last pre-activation is the logits of a softmax head.  ``run`` evaluates
the per-sample log-probability of the true label, ``lp``, and returns the
mean cross-entropy ``-mean(lp)``; it caches the layer activations and the
softmax numerator and denominator.  ``backward`` is the matching
vector-Jacobian product, written straight into one flat gradient aligned
with the graph's ``ParameterLayout``: of the cross-entropy by default, or of
any loss built on ``lp`` when given its upstream gradient ``dL/dlp`` (the
preference loss in ``objectives`` uses that).  Every production loss is a
function of ``lp``, so this one kernel serves finetuning, both task
gradients, probes and evaluation.

Finiteness is checked once per layer pre-activation and once on the loss.
The floating-point operations and their order are fixed, so a run is
reproducible bit for bit.  They are those of the plain numpy formulas
(``tests/_oracles.py`` keeps them as the reference); the kernel only picks
faster forms of the same operations, such as in-place products and the
reductions ``_row_sum`` and ``_col_sum``.

Everything is 64-bit.  Graphs are single-owner: a run/backward pair must
not be interleaved with runs of the same graph from another thread.  A
copied or pickled graph leaves its forward cache behind.
``ParameterVector`` and ``FlatGradient`` are immutable values and safe to
share, across processes too: a pickled copy is rebuilt through the checking
constructor, so it arrives frozen and validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DimensionError(ValueError):
    """Shapes or layouts do not line up."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class GraphStateError(RuntimeError):
    """A graph operation was called in the wrong order (e.g. backward before forward)."""


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _frozen_f64(value) -> np.ndarray:
    arr = _as_f64(value).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Segment:
    """One named slice of the flat parameter vector."""

    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class ParameterLayout:
    """Ordered, contiguous, non-overlapping segments covering a flat vector."""

    segments: tuple[Segment, ...]
    total_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        offset = 0
        names = set()
        for seg in self.segments:
            if seg.offset != offset:
                raise DimensionError(
                    f"segment {seg.name!r} offset {seg.offset}, expected {offset}"
                )
            if seg.name in names:
                raise DimensionError(f"duplicate segment name {seg.name!r}")
            names.add(seg.name)
            offset += seg.size
        object.__setattr__(self, "total_size", offset)


def _check_vector(data: np.ndarray, layout: ParameterLayout, what: str) -> np.ndarray:
    data = _frozen_f64(data).reshape(-1)
    if data.size != layout.total_size:
        raise DimensionError(
            f"{what} length {data.size} does not match layout size {layout.total_size}"
        )
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{what} entries must be finite")
    return data


def _adopt_vector(cls, data: np.ndarray, layout: ParameterLayout, what: str):
    """Build a ``cls`` value around a fresh flat array of the layout's size.

    Only the finiteness check remains: the array is owned by nobody else,
    so it is frozen in place instead of copied.
    """
    # count_nonzero skips the Python wrapper of ndarray.all
    if np.count_nonzero(np.isfinite(data)) != data.size:
        raise NumericError(f"{what} entries must be finite")
    data.setflags(write=False)
    value = object.__new__(cls)
    value.__dict__.update(data=data, layout=layout)
    return value


@dataclass(frozen=True)
class ParameterVector:
    """Flat model parameters plus the layout mapping segments to weights."""

    data: np.ndarray
    layout: ParameterLayout

    def __post_init__(self):
        object.__setattr__(self, "data", _check_vector(self.data, self.layout, "parameter"))

    def __reduce__(self):
        # an unpickled array comes back writeable: rebuild through the checks
        return ParameterVector, (self.data, self.layout)

    @property
    def size(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class FlatGradient:
    """Flat gradient in the same layout as the parameter vector it differentiates."""

    data: np.ndarray
    layout: ParameterLayout

    def __post_init__(self):
        object.__setattr__(self, "data", _check_vector(self.data, self.layout, "gradient"))

    def __reduce__(self):
        return FlatGradient, (self.data, self.layout)

    @property
    def norm(self) -> float:
        # np.linalg.norm's own formula for a 1-D float vector, without its wrapper
        return math.sqrt(self.data.dot(self.data))


def _same_layout(a: ParameterLayout, b: ParameterLayout, what: str) -> None:
    if a is not b and a != b:
        raise DimensionError(f"{what}: parameter layouts differ")


def axpy_update(params: ParameterVector, direction: FlatGradient, eta: float) -> ParameterVector:
    """Return ``params - eta * direction`` as a new vector; inputs unchanged."""
    _same_layout(params.layout, direction.layout, "axpy_update")
    eta = float(eta)
    if not math.isfinite(eta):
        raise NumericError("step size must be finite")
    updated = params.data - eta * direction.data
    return _adopt_vector(ParameterVector, updated, params.layout, "parameter")


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1, keepdims=True)``, taken column by column.

    A row reduction over a handful of classes pays numpy's per-row overhead;
    the maximum is exact, so the column-wise form gives the same values.
    """
    m = x[:, 0]
    for j in range(1, x.shape[1]):
        m = np.maximum(m, x[:, j])
    return m.reshape(-1, 1)


# Row count from which the reductions below beat numpy's own: under it,
# numpy's per-row overhead costs less than their extra calls.
_FAST_ROWS = 128


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1, keepdims=True)``, bit for bit, added column by column.

    Below 8 columns numpy sums each row left to right from zero, which is
    the order of these column adds, and the 1-D column adds skip numpy's
    per-row overhead.  From 8 columns on numpy sums pairwise, so the call
    itself is made, as it is for short inputs.
    """
    n, k = x.shape
    if n < _FAST_ROWS or not 2 <= k < 8:
        return x.sum(axis=1, keepdims=True)
    s = x[:, 0] + x[:, 1]
    for j in range(2, k):
        s += x[:, j]
    return s.reshape(-1, 1)


def _col_sum(g: np.ndarray) -> np.ndarray:
    """``g.sum(axis=0)``, bit for bit, for a C-contiguous 2-D ``g``.

    With two or more columns numpy adds the rows one after another, which
    is also einsum's order there, and einsum avoids numpy's per-row
    overhead.  A single column is one contiguous vector that numpy sums
    pairwise, so the call itself is made, as it is for short inputs.
    """
    if g.shape[0] < _FAST_ROWS or g.shape[1] == 1:
        return g.sum(axis=0)
    return np.einsum("ij->j", g)


@dataclass
class _Cache:
    """What ``Graph.run`` leaves for ``backward`` and for readers of the logits."""

    weights: list  # w_i views into the parameter vector
    acts: list  # acts[0] is the input, acts[i] the output of layer i
    at_label: np.ndarray  # flat index of each row's true label in the logits
    numer: np.ndarray  # exp(logits - rowmax)
    denom: np.ndarray  # row sums of ``numer``, shape (n, 1)
    lp: np.ndarray  # true-label log-probabilities


class Graph:
    """A tanh MLP with a true-label log-prob head, over a flat parameter vector.

    ``widths`` runs from the input width through the hidden widths to the
    class count.  Segments ``w1, b1, w2, b2, ...`` lay out each layer's
    ``(fan_in, fan_out)`` weight and ``(fan_out,)`` bias in that order.
    """

    def __init__(self, widths):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise DimensionError("need at least input and output widths")
        if any(w < 1 for w in widths):
            raise DimensionError(f"layer widths must be >= 1, got {widths}")
        segments, layers, offset = [], [], 0
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), start=1):
            w = Segment(f"w{i}", (fan_in, fan_out), offset)
            b = Segment(f"b{i}", (fan_out,), w.offset + w.size)
            segments += [w, b]
            layers.append((slice(w.offset, b.offset), w.shape, slice(b.offset, b.offset + fan_out)))
            offset = b.offset + fan_out
        self.widths = widths
        self.layout = ParameterLayout(tuple(segments))
        self._layers = tuple(layers)
        self._cache: _Cache | None = None

    def __getstate__(self):
        # a copy, pickled or shallow, starts without the forward cache
        return {**self.__dict__, "_cache": None}

    def _bind(self, bindings: dict) -> tuple[np.ndarray, np.ndarray]:
        for name in ("features", "labels"):
            if name not in bindings:
                raise DimensionError(f"missing binding for {name!r}")
        x = _as_f64(bindings["features"])
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise DimensionError(f"features expect shape (n, {self.widths[0]}), got {x.shape}")
        if x.shape[0] == 0:
            raise DimensionError("features must be non-empty")
        labels = np.asarray(bindings["labels"])
        if labels.dtype != np.int64:
            labels = labels.astype(np.int64)
        if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
            raise DimensionError("labels must be a 1-D integer array with one entry per row")
        if labels.min() < 0 or labels.max() >= self.widths[-1]:
            raise DimensionError("labels out of class range")
        return x, labels

    def run(self, params: ParameterVector, bindings: dict) -> float:
        """Forward pass over ``bindings["features"]`` and ``bindings["labels"]``.

        Returns the mean cross-entropy and caches what ``backward`` needs.
        """
        _same_layout(params.layout, self.layout, "forward")
        h, labels = self._bind(bindings)
        data = params.data
        weights, acts = [], [h]
        last = len(self._layers)
        # finiteness is checked once per layer, so numpy's own warnings are noise
        with np.errstate(all="ignore"):
            for i, (w_at, w_shape, b_at) in enumerate(self._layers, start=1):
                w = data[w_at].reshape(w_shape)
                h = h @ w
                h += data[b_at]
                if np.count_nonzero(np.isfinite(h)) != h.size:
                    raise NumericError(f"non-finite pre-activation in layer {i}")
                if i < last:
                    np.tanh(h, out=h)
                weights.append(w)
                acts.append(h)
            m = _row_max(h)
            numer = h - m
            np.exp(numer, out=numer)
            denom = _row_sum(numer)
            n, classes = h.shape
            at_label = np.arange(0, n * classes, classes) + labels  # flat (row, label) index
            lse = np.log(denom)
            lse += m
            lp = h.take(at_label)
            lp -= lse[:, 0]
            loss = float(-(lp.sum() / n))  # -np.mean(lp), without its wrapper
        if not math.isfinite(loss):
            raise NumericError("non-finite cross-entropy")
        self._cache = _Cache(weights, acts, at_label, numer, denom, lp)
        return loss

    def _cached(self) -> _Cache:
        if self._cache is None:
            raise GraphStateError("no forward pass has been run")
        return self._cache

    @property
    def logits(self) -> np.ndarray:
        """Logits of the most recent ``run``."""
        return self._cached().acts[-1]

    @property
    def lp(self) -> np.ndarray:
        """True-label log-probabilities of the most recent ``run``."""
        return self._cached().lp

    def backward(self, dlp: np.ndarray | None = None) -> FlatGradient:
        """Gradient w.r.t. the flat parameter vector, after a ``run``.

        Without ``dlp`` this differentiates the cross-entropy that ``run``
        returned; with ``dlp`` (one entry per row) it differentiates any
        loss whose gradient w.r.t. ``lp`` is ``dlp``.
        """
        c = self._cached()
        # every product below is written in place; IEEE products commute,
        # so the operand order of the plain formulas does not matter
        g = c.numer / c.denom  # probs
        if dlp is None:
            g.reshape(-1)[c.at_label] -= 1.0  # probs - onehot
            g *= 1.0 / c.lp.shape[0]
        else:
            dlp = _as_f64(dlp)
            if dlp.shape != c.lp.shape:
                raise DimensionError(f"dlp shape {dlp.shape} does not match {c.lp.shape}")
            # onehot - probs, spelled so that zero probabilities give +0.0
            np.subtract(0.0, g, out=g)
            g.reshape(-1)[c.at_label] += 1.0
            g *= dlp.reshape(-1, 1)
        flat = np.empty(self.layout.total_size)
        for i in range(len(self._layers) - 1, -1, -1):
            w_at, _, b_at = self._layers[i]
            flat[b_at] = _col_sum(g)
            flat[w_at] = (c.acts[i].T @ g).ravel()
            if i > 0:
                y = c.acts[i]
                dy = y * y
                np.subtract(1.0, dy, out=dy)
                g = g @ c.weights[i].T
                g *= dy  # (1 - y^2) * (g W^T)
        return _adopt_vector(FlatGradient, flat, self.layout, "gradient")


def forward(graph: Graph, params: ParameterVector, batch) -> float:
    """Run the graph on a labeled batch, binding ``features`` and ``labels``."""
    return graph.run(params, {"features": batch.features, "labels": batch.labels})
