"""Deterministic problem generators for the desk-scale experiments.

Synthetic Gaussian-cluster classification stands in for image/text corpora:
class ``k`` is an isotropic unit-variance blob centered at
``separation * e_k``.  Everything is a pure function of its seed, so runs
are reproducible bit for bit on one machine.  Across machines the bits of a
run may differ: numpy's OpenBLAS picks its matrix kernels by CPU, and their
summation order goes with them.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .autodiff import Graph, NumericError, parameter_vector


class LabeledBatch(namedtuple("LabeledBatch", "features labels class_count")):
    """Feature matrix (n x d) with integer class labels, both frozen copies."""

    __slots__ = ()

    def __new__(cls, features, labels, class_count):
        features = np.array(features, dtype=np.float64, order="C")
        features.flags.writeable = False
        labels = np.asarray(labels, dtype=np.int64).copy()
        labels.flags.writeable = False
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if not np.isfinite(features).all():
            raise NumericError("feature entries must be finite")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row")
        if labels.shape[0] < 1:
            raise ValueError("batch must be non-empty")
        if class_count < 1 or labels.min() < 0 or labels.max() >= class_count:
            raise ValueError("labels must lie in [0, class_count)")
        return super().__new__(cls, features, labels, class_count)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray) -> "LabeledBatch":
        """Rows ``indices`` (a non-empty 1-D index array) as a new batch.

        The rows come from this already validated batch, so they are cut
        once and not re-checked.
        """
        features = self.features[indices]
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("take needs a non-empty 1-D index array")
        features.flags.writeable = False
        labels = self.labels[indices]
        labels.flags.writeable = False
        return tuple.__new__(LabeledBatch, (features, labels, self.class_count))


class ForgetRetainSplit(namedtuple("ForgetRetainSplit", "retain forget forget_class")):
    """Partition of a dataset into the class to forget and everything else."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not np.all(self.forget.labels == self.forget_class):
            raise ValueError("forget split must contain only the forget class")
        if np.any(self.retain.labels == self.forget_class):
            raise ValueError("retain split must not contain the forget class")
        return self


def gen_gaussian_clusters(
    seed: int, classes: int, per_class: int, dim: int, separation: float
) -> LabeledBatch:
    """Axis-anchored Gaussian blobs, one per class, deterministic in ``seed``."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if not separation > 0:
        raise ValueError("separation must be positive")
    if dim < classes:
        raise ValueError(f"dim={dim} too small for {classes} axis-anchored centers")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((classes * per_class, dim))
    labels = np.repeat(np.arange(classes), per_class)
    features[np.arange(len(labels)), labels] += separation
    return LabeledBatch(features, labels, classes)


def split_forget_retain(data: LabeledBatch, forget_class: int) -> ForgetRetainSplit:
    """Partition by label; every sample lands in exactly one side."""
    mask = data.labels == forget_class
    if not mask.any():
        raise ValueError(f"class {forget_class} is absent from the dataset")
    idx = np.arange(data.n)
    return ForgetRetainSplit(
        retain=data.take(idx[~mask]),
        forget=data.take(idx[mask]),
        forget_class=forget_class,
    )


def mlp_factory(seed: int, layer_widths) -> tuple[Graph, np.ndarray]:
    """Tanh MLP with a softmax cross-entropy head.

    ``layer_widths`` runs input width through hidden widths to class count;
    two entries give plain multinomial logistic regression.  Weights are
    uniform(-s, s) with ``s = sqrt(6 / (fan_in + fan_out))``, biases zero,
    deterministic in ``seed``.
    """
    widths = [int(w) for w in layer_widths]
    graph = Graph(widths)
    rng = np.random.default_rng(seed)
    init = np.zeros(0)
    for fan_in, fan_out in zip(widths, widths[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        init = np.concatenate(
            [init, rng.uniform(-s, s, size=fan_in * fan_out), np.zeros(fan_out)]
        )
    return graph, parameter_vector(init)

