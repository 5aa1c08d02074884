"""Fused tanh-MLP log-prob kernel over dense float64 arrays.

A ``Graph`` is the fixed program of a tanh MLP classifier: layer ``i``
computes ``z_i = h_{i-1} @ w_i + b_i``, hidden layers apply ``tanh``, and
the last pre-activation is the logits of a softmax head.  ``run`` evaluates
the per-sample log-probability of the true label, ``lp``, and returns the
mean cross-entropy ``-mean(lp)``; it caches the layer activations and the
softmax numerator and denominator.  ``backward`` is the matching
vector-Jacobian product, written straight into one flat gradient laid out
as the flat parameter vector: of the cross-entropy by default, or of
any loss built on ``lp`` when given its upstream gradient ``dL/dlp`` (the
preference loss in ``objectives`` uses that).  Every production loss is a
function of ``lp``, so this one kernel serves finetuning, both task
gradients, probes and evaluation.

Rows enter a pass as ``LabeledBatch``es: ``Graph.bind`` stacks equal-size
batches as groups of rows and checks them once, and ``Graph.run`` takes
only what ``bind`` returned.  Each group's loss, ``lp``, logits and
gradient are bit for bit those of a lone pass over its batch (a pass of
one group), since every product is one GEMM per group and every
reduction keeps its per-group order.  Every pass has a run axis in front
of the groups: ``(1, groups, n, d) @ (runs, 1, d, k)`` is one GEMM per
run and group, so a pass over several parameter vectors gives each run
the losses, ``lp``, logits and gradients of its lone pass, bit for bit.
A lone pass, over one vector, is a pass over one run that hands back that
run's values alone, and raises ``NumericError`` at a non-finite value.
A pass over a matrix records instead each (run, group) slice's first error,
the one its lone pass would raise, in ``Graph.failed``, and carries on: no
slice's values reach another's, so the other slices stay those of their
lone passes.

A parameter vector is a read-only 1-D float64 array (``parameter_vector``
makes one), a gradient a ``FlatGradient`` around one.  Finiteness is
checked once per layer pre-activation and once on the loss.  Every
parameter or gradient vector is checked once, by its sum of squares
``data.dot(data)``: a finite sum proves every entry finite, since a nan
entry makes it nan and an infinite one inf.  Only a non-finite sum, which
huge finite entries also give when their squares overflow, is followed by
the entry-wise test.  A ``FlatGradient`` keeps the sum's root as its
``norm``, which the combination rules and the trace's ``gnorm_*`` columns read.
The floating-point operations and their order are fixed, so a run is
reproducible bit for bit.  They are those of the plain numpy formulas
(``tests/_oracles.py`` keeps them as the reference); the kernel only picks
faster forms of the same operations, such as in-place products and the
reductions ``_row_sum`` and ``_col_sum``.

Everything is 64-bit.  Graphs are single-owner: a run/backward pair must
not be interleaved with runs of the same graph from another thread.  A
copied or pickled graph leaves its forward cache behind.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Shapes or sizes do not line up, such as a vector of the wrong length."""


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


def _adopt_vector(data: np.ndarray, what: str, sq=None) -> np.ndarray:
    """Freeze a fresh flat array in place once it is proved finite, and return it.

    The array is owned by nobody else, so it is frozen in place instead of
    copied.  A finite sum of squares proves every entry finite (a nan entry
    makes it nan, an infinite one inf); only a non-finite sum, which huge
    finite entries can also give, is followed by the entry-wise test.
    ``sq`` is ``data.dot(data)`` when the caller has taken it; a gradient's
    maker takes it, as it keeps the sum's root as the ``FlatGradient``'s norm.
    """
    if sq is None:
        sq = data.dot(data)
    # count_nonzero skips the Python wrapper of ndarray.all
    if not math.isfinite(sq) and np.count_nonzero(np.isfinite(data)) != data.size:
        raise NumericError(f"{what} entries must be finite")
    data.setflags(write=False)
    return data


def _column(values):
    """Per-row scalars ``values`` as an operand that broadcasts over the rows of a matrix.

    It is a column, or for one row the scalar itself, which numpy
    broadcasts at less cost; each entry's product is the same either way.
    """
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def parameter_vector(values) -> np.ndarray:
    """A parameter vector: a read-only flat float64 copy of ``values``, proved finite."""
    # the loops adopt inside their own errstate; a lone call silences the
    # warning about a sum of squares that overflows itself
    with np.errstate(over="ignore"):
        return _adopt_vector(np.array(np.ravel(values), dtype=np.float64), "parameter")


class FlatGradient(namedtuple("FlatGradient", "data norm")):
    """A gradient: a read-only flat float64 array and its norm.

    ``FlatGradient(values)`` makes a read-only flat float64 copy of
    ``values``, proves it finite and derives ``norm``: the root of the sum
    of squares ``data.dot(data)`` that proved it (``inf`` when that sum
    overflows).  The loops build theirs around fresh arrays through
    ``tuple.__new__``, after ``_adopt_vector``, without the copy.
    """

    __slots__ = ()

    def __new__(cls, values):
        data = np.array(np.ravel(values), dtype=np.float64)
        with np.errstate(over="ignore"):
            sq = data.dot(data)
        return tuple.__new__(cls, (_adopt_vector(data, "gradient", sq), math.sqrt(sq)))

    def __getnewargs__(self):
        return (self.data,)


def axpy_update(params: np.ndarray, direction: FlatGradient, eta: float) -> np.ndarray:
    """Return ``params - eta * direction`` as a new parameter vector; inputs unchanged."""
    data = direction.data
    if data.shape != params.shape:  # broadcasting would take a size-1 operand
        raise DimensionError(f"axpy_update: direction of shape {data.shape}, parameters of shape {params.shape}")
    eta = float(eta)
    if not math.isfinite(eta):
        raise NumericError("step size must be finite")
    return _adopt_vector(params - eta * data, "parameter")


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
    """``g.sum(axis=-2)``, bit for bit, for a C-contiguous ``g`` (a matrix or a stack of them).

    With two or more columns numpy adds the rows one after another, which
    is also einsum's order there, and einsum avoids numpy's per-row
    overhead.  A single column is one contiguous vector that numpy sums
    pairwise, so the call itself is made, as it is for short inputs.
    """
    if g.shape[-2] < _FAST_ROWS or g.shape[-1] == 1:
        return g.sum(axis=-2)
    return np.einsum("...ij->...j", g)


def _every_run(at_label: np.ndarray, runs: int, span: int) -> np.ndarray:
    """The flat index ``at_label`` into one run's ``span`` logits, repeated
    into each of ``runs`` runs' logits laid one after another.

    A flat index is cheaper to take and to set through than one along an axis.
    """
    if runs == 1:
        return at_label
    return np.add.outer(np.arange(0, runs * span, span), at_label).reshape(-1)


class _Cache(NamedTuple):
    """What ``Graph.run`` leaves for ``backward`` and for readers of the logits."""

    weights: list  # w_i views into the parameter vector(s)
    acts: list  # (runs, groups, n, width): acts[0] the input, acts[i] layer i's output; logits last
    at_label: np.ndarray  # flat index of each row's true label in one run's logits
    numer: np.ndarray  # exp(logits - rowmax), one row per row of every run
    denom: np.ndarray  # row sums of ``numer``, shape (rows, 1)
    lp: np.ndarray  # true-label log-probabilities, one row per run
    lone: bool  # whether the pass took one vector, not a matrix


class Graph:
    """A tanh MLP with a true-label log-prob head, over a flat parameter vector.

    ``widths`` runs from the input width through the hidden widths to the
    class count.  A parameter vector of ``size`` entries holds, layer after
    layer, the ``(fan_in, fan_out)`` weight in row-major order and then the
    ``(fan_out,)`` bias.

    ``failed`` is None after a pass over a matrix whose checked values were
    all finite, else one list per run of each group's first ``NumericError``
    or None: the first stage that failed (a layer, the cross-entropy, then
    ``backward``'s gradient), though later ones may be finite (``tanh(inf)``).
    """

    def __init__(self, widths):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise DimensionError("need at least input and output widths")
        if any(w < 1 for w in widths):
            raise DimensionError(f"layer widths must be >= 1, got {widths}")
        layers, offset = [], 0
        for fan_in, fan_out in zip(widths, widths[1:]):
            bias = offset + fan_in * fan_out
            layers.append((slice(offset, bias), (fan_in, fan_out), slice(bias, bias + fan_out)))
            offset = bias + fan_out
        self.widths = widths
        self.size = offset
        self._layers = tuple(layers)
        self._cache: _Cache | None = None
        self.failed: list | None = None

    def __getstate__(self):
        # a copy, pickled or shallow, starts without the forward cache and its errors
        return {**self.__dict__, "_cache": None, "failed": None}

    def _fail(self, lone: bool, finite: np.ndarray, message: str, groups: int) -> None:
        """Raise ``message`` for a lone pass; else record it for each slice of
        the ``(runs, <= groups)`` mask ``finite`` that is False and has no error yet."""
        if lone:
            raise NumericError(message)
        if self.failed is None:
            self.failed = [[None] * groups for _ in finite]
        for errors, row in zip(self.failed, finite.tolist()):
            for group, ok in enumerate(row):
                if not ok and errors[group] is None:
                    errors[group] = NumericError(message)

    def bind(self, *batches) -> dict:
        """The rows of one pass over equal-size ``LabeledBatch``es, one group each, checked once.

        A ``LabeledBatch`` has already checked its own shapes and labels, so
        only what it cannot know about this graph is checked here: the
        batches' common shape, the feature width and the class count.  The
        bound rows stay a dict, since the tracer in ``perfbench/tracing.py``
        reads ``run``'s ``bindings["features"]`` to count rows.
        """
        if len({b.features.shape for b in batches}) != 1:
            raise DimensionError("the batches of one pass must have one shape")
        x = np.concatenate([b.features for b in batches])
        labels = np.concatenate([b.labels for b in batches])
        if x.shape[1] != self.widths[0]:
            raise DimensionError(f"features expect shape (n, {self.widths[0]}), got {x.shape}")
        k = self.widths[-1]
        if labels.max() >= k:
            raise DimensionError("labels out of class range")
        at_label = np.arange(0, x.shape[0] * k, k) + labels  # flat (row, true label) index
        checked = {"features": x, "labels": labels, "groups": len(batches), "at_label": at_label}
        return {**checked, "widths": self.widths}  # the graph's own widths mark them checked

    def run(self, params, bindings: dict) -> tuple:
        """Forward pass over ``bindings["features"]`` and ``bindings["labels"]``.

        Returns each group's mean cross-entropy and caches what ``backward``
        needs.  ``bindings`` must be what this graph's ``bind`` returned, and
        is not checked again; any other value raises ``DimensionError``.
        ``params`` is one parameter vector, an array of ``size`` entries, or
        a matrix whose rows are such vectors: a pass over several runs at
        once, which returns each run's tuple of group losses, bit for bit
        those of its lone pass, with its errors in ``failed``.
        """
        self._cache = self.failed = None  # a pass that raises leaves nothing to read
        lone = params.ndim == 1
        data = params[None] if lone else params  # a lone vector viewed as a run axis of one
        if data.ndim != 2 or data.shape[1] != self.size:  # slicing would take a longer vector
            raise DimensionError(f"parameter vector of shape {data.shape[1:]}, the graph takes ({self.size},)")
        if not (isinstance(bindings, dict) and bindings.get("widths") is self.widths):
            raise DimensionError("bindings must be what this graph's bind returned")
        groups = bindings["groups"]
        runs = len(data)
        # a run axis in front: (1, groups, n, d) @ (runs, 1, d, k) is one GEMM per run and group
        h = bindings["features"].reshape(1, groups, -1, self.widths[0])
        n = h.shape[2]
        weights, acts = [], [h]
        last = len(self._layers)
        # finiteness is checked once per layer, so numpy's own warnings are noise
        with np.errstate(all="ignore"):
            for i, (w_at, w_shape, b_at) in enumerate(self._layers, start=1):
                w = data[:, w_at].reshape(runs, 1, *w_shape)
                h = h @ w
                h += data[:, None, None, b_at]
                if np.count_nonzero(np.isfinite(h)) != h.size:
                    self._fail(lone, np.isfinite(h).all(axis=(2, 3)), f"non-finite pre-activation in layer {i}", groups)
                if i < last:
                    np.tanh(h, out=h)
                weights.append(w)
                acts.append(h)
            logits = h.reshape(-1, h.shape[-1])
            m = _row_max(logits)
            numer = logits - m
            np.exp(numer, out=numer)
            denom = _row_sum(numer)
            lse = np.log(denom)
            lse += m
            # each run's logits and lp, laid out as its lone pass lays them out
            acts[-1] = logits.reshape(runs, -1, logits.shape[1])
            lp = logits.take(_every_run(bindings["at_label"], runs, logits.size // runs)).reshape(runs, -1)
            lp -= lse.reshape(lp.shape)
            # one reduction sums each n-row group of every run pairwise, as -np.mean(lp) sums it
            losses = (-(lp.reshape(-1, n).sum(axis=1) / n)).tolist()
        if not all(map(math.isfinite, losses)):
            self._fail(lone, np.isfinite(losses).reshape(runs, groups), "non-finite cross-entropy", groups)
        self._cache = _Cache(weights, acts, bindings["at_label"], numer, denom, lp, lone)
        if lone:
            return tuple(losses)
        return tuple([tuple(losses[i : i + groups]) for i in range(0, len(losses), groups)])

    def _cached(self) -> _Cache:
        if self._cache is None:
            raise GraphStateError("no forward pass has been run")
        return self._cache

    @property
    def logits(self) -> np.ndarray:
        """Logits of the most recent ``run``, one row per row of its features
        (of each run's features, after a pass over several runs)."""
        cache = self._cached()
        return cache.acts[-1][0] if cache.lone else cache.acts[-1]

    @property
    def lp(self) -> np.ndarray:
        """True-label log-probabilities of the most recent ``run``, one per row
        (one row per run, after a pass over several runs)."""
        cache = self._cached()
        return cache.lp[0] if cache.lone else cache.lp

    def backward(self, dlp: np.ndarray | None = None, groups: int | None = None) -> tuple:
        """Gradients w.r.t. the flat parameter vector, after a ``run``: one per group.

        Without ``dlp`` this differentiates the cross-entropy of each group
        that ``run`` returned; with ``dlp`` (one entry per row, shaped as
        ``lp``) it differentiates any loss whose gradient w.r.t. ``lp`` is
        ``dlp``.  With ``groups`` only the first ``groups`` groups are
        differentiated.  After a lone pass it returns a ``FlatGradient`` per
        group; after a pass over several runs ``(flat, norms)``, the rows of
        one read-only ``(runs, groups, size)`` array and each run's list of
        their norms.  A gradient with a non-finite entry raises or goes in
        ``failed``, as ``run``'s errors do; huge finite entries pass.
        """
        weights, acts, at_label, numer, denom, lp, lone = self._cached()
        runs, rows = lp.shape
        stacked, n = acts[0].shape[1:3]
        groups = stacked if groups is None else groups
        if groups != stacked:
            if not 0 < groups < stacked:
                raise DimensionError(f"cannot differentiate {groups} of {stacked} groups")
            acts = [a[:, :groups] for a in acts[:-1]]
            rows = groups * n
            at_label = at_label[:rows]
            numer, denom = (a.reshape(runs, stacked * n, -1)[:, :rows] for a in (numer, denom))
        # every product below is written in place; IEEE products commute,
        # so the operand order of the plain formulas does not matter
        g = numer / denom  # probs
        at_label = _every_run(at_label, runs, g.size // runs)
        if dlp is None:
            g.reshape(-1)[at_label] -= 1.0  # probs - onehot
            g *= 1.0 / n
        else:
            dlp = _as_f64(dlp)
            shape = (rows,) if lone else (runs, rows)
            if dlp.shape != shape:
                raise DimensionError(f"dlp shape {dlp.shape} does not match {shape}")
            # onehot - probs, spelled so that zero probabilities give +0.0
            np.subtract(0.0, g, out=g)
            g.reshape(-1)[at_label] += 1.0
            g *= dlp.reshape(*g.shape[:-1], 1)
        g = g.reshape(runs, groups, n, -1)
        flat = np.empty((runs, groups, self.size))
        for i in range(len(self._layers) - 1, -1, -1):
            w_at, _, b_at = self._layers[i]
            y = acts[i]
            flat[..., b_at] = _col_sum(g)
            flat[..., w_at] = (y.swapaxes(-1, -2) @ g).reshape(runs, groups, -1)  # one GEMM per group
            if i > 0:
                dy = np.square(y)  # the bits of y * y, in numpy's faster loop
                np.subtract(1.0, dy, out=dy)
                g = g @ weights[i].swapaxes(-1, -2)
                g *= dy  # (1 - y^2) * (g W^T)
        flat.flags.writeable = False
        # each row's sum of squares proves it finite and gives its norm; a
        # non-finite sum, which huge finite entries also give, is followed
        # by the entry-wise test of every row
        norms = [list(map(math.sqrt, run)) for run in np.vecdot(flat, flat).tolist()]
        if not math.isfinite(sum(map(sum, norms))):
            finite = np.isfinite(flat).all(axis=2)
            if not finite.all():
                self._fail(lone, finite, "gradient entries must be finite", stacked)
        if not lone:
            return flat, norms
        return tuple([tuple.__new__(FlatGradient, pair) for pair in zip(flat[0], norms[0])])

