"""Forward/backward correctness of the autodiff core."""

import math
import pickle

import numpy as np
import pytest

from ngdiff import (
    DimensionError,
    FlatGradient,
    GraphStateError,
    LabeledBatch,
    NumericError,
    ParameterVector,
    axpy_update,
    forward,
)
from ngdiff.autodiff import _FAST_ROWS, _col_sum, _row_sum
from ngdiff.bench import mlp_factory
from ngdiff.objectives import theta_layout

from _oracles import (
    assert_matches_fd,
    random_mlp_case,
    segment,
    straight_line_mlp_grad,
    straight_line_mlp_loss,
)


def batch_of(features, labels, classes):
    return LabeledBatch(np.asarray(features, float), np.asarray(labels), classes)


class TestForward:
    def test_zero_weights_give_uniform_softmax_loss(self):
        graph, params = mlp_factory(0, [4, 3])
        zero = ParameterVector(np.zeros(params.size), params.layout)
        batch = batch_of(np.random.default_rng(1).standard_normal((5, 4)), [0, 1, 2, 0, 1], 3)
        loss = forward(graph, zero, batch)
        assert loss == pytest.approx(math.log(3.0), abs=1e-15)

    def test_saturated_true_class_gives_zero_loss(self):
        # identity logits with an overwhelming margin: true-class probability
        # rounds to 1, so the cross-entropy is exactly 0
        graph, params = mlp_factory(0, [3, 3])
        ident = np.concatenate([50.0 * np.eye(3).ravel(), np.zeros(3)])
        params = ParameterVector(ident, params.layout)
        batch = batch_of([[1.0, 0.0, 0.0]], [0], 3)
        assert forward(graph, params, batch) == 0.0

    def test_matches_straight_line_reimplementation(self):
        widths = [4, 6, 3]
        graph, params = mlp_factory(7, widths)
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((8, 4))
        labels = rng.integers(0, 3, size=8)
        loss = forward(graph, params, batch_of(feats, labels, 3))
        expected = straight_line_mlp_loss(widths, params, feats, labels)
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_shape_mismatch_is_dimension_error(self):
        graph, params = mlp_factory(0, [4, 3])
        with pytest.raises(DimensionError):
            forward(graph, params, batch_of(np.zeros((2, 5)), [0, 1], 3))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_of(np.zeros((0, 4)), [], 3)

    def test_loss_equals_straight_line_oracle_exactly(self):
        # the kernel does the oracle's floating-point operations in its order
        for seed in range(20):
            graph, params, batch = random_mlp_case(seed)
            loss = forward(graph, params, batch)
            assert loss == straight_line_mlp_loss(
                graph.widths, params, batch.features, batch.labels
            )

    @pytest.mark.parametrize("layer", [1, 2])
    def test_overflowing_preactivation_names_the_layer(self, layer):
        # all-positive inputs into weights of 1e308 sum past the float64 range
        graph, params = mlp_factory(0, [3, 4, 3])
        data = params.data.copy()
        segment(params.layout, data, f"w{layer}")[...] = 1e308
        if layer == 2:
            segment(params.layout, data, "b1")[...] = 20.0  # hidden units saturate at +1
        bad = ParameterVector(data, params.layout)
        features = np.full((2, 3), 5.0) if layer == 1 else np.zeros((2, 3))
        with pytest.raises(NumericError, match=f"layer {layer}"):
            forward(graph, bad, batch_of(features, [0, 1], 3))

    def test_labels_out_of_range_is_dimension_error(self):
        graph, params = mlp_factory(0, [4, 3])
        with pytest.raises(DimensionError):
            graph.run(params, {"features": np.zeros((2, 4)), "labels": np.array([0, 3])})
        with pytest.raises(DimensionError):
            graph.run(params, {"features": np.zeros((2, 4)), "labels": np.array([-1, 0])})

    def test_cached_values_need_a_run(self):
        graph, params = mlp_factory(0, [4, 3])
        with pytest.raises(GraphStateError):
            graph.logits
        with pytest.raises(GraphStateError):
            graph.lp
        batch = batch_of(np.eye(4)[:3], [0, 1, 2], 3)
        loss = forward(graph, params, batch)
        assert graph.logits.shape == (3, 3)
        assert loss == -np.mean(graph.lp)


class TestBackward:
    def test_logistic_regression_gradient_closed_form(self):
        # one layer: dCE/dW = X^T (P - Y) / n and dCE/db = sum_rows(P - Y) / n
        graph, params = mlp_factory(4, [4, 3])
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((6, 4))
        labels = np.array([0, 1, 2, 2, 1, 0])
        forward(graph, params, batch_of(feats, labels, 3))
        grad = graph.backward()
        w1 = segment(params.layout, params.data, "w1")
        logits = feats @ w1 + segment(params.layout, params.data, "b1")
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        resid = (probs - np.eye(3)[labels]) / 6.0
        np.testing.assert_allclose(segment(grad.layout, grad.data, "w1"), feats.T @ resid, atol=1e-15)
        np.testing.assert_allclose(segment(grad.layout, grad.data, "b1"), resid.sum(axis=0), atol=1e-15)

    def test_gradient_equals_straight_line_oracle_exactly(self):
        # same floating-point operations in the same order, with and without dlp
        for seed in range(20):
            graph, params, batch = random_mlp_case(seed)
            feats, labels = batch.features, batch.labels
            dlp = np.random.default_rng(seed).standard_normal(batch.n)
            forward(graph, params, batch)
            expected = straight_line_mlp_grad(graph.widths, params, feats, labels)
            assert np.array_equal(graph.backward().data, expected)
            expected = straight_line_mlp_grad(graph.widths, params, feats, labels, dlp)
            assert np.array_equal(graph.backward(dlp).data, expected)

    def test_constant_loss_gives_zero_gradient(self):
        # a loss that does not depend on lp has dL/dlp = 0
        graph, params, batch = random_mlp_case(2)
        forward(graph, params, batch)
        assert np.all(graph.backward(np.zeros(batch.n)).data == 0.0)

    def test_mlp_gradient_matches_finite_differences(self):
        graph, params, batch = random_mlp_case(7)
        forward(graph, params, batch)
        assert_matches_fd(graph, params, batch, graph.backward())

    def test_backward_without_forward_is_state_error(self):
        graph, _ = mlp_factory(0, [3, 3])
        with pytest.raises(GraphStateError):
            graph.backward()

    def test_upstream_gradient_matches_finite_differences(self):
        # backward(dlp) differentiates sum(a * lp) for a fixed weight vector a
        graph, params, batch = random_mlp_case(5)
        weights = np.random.default_rng(5).standard_normal(batch.n)

        def weighted(p):
            forward(graph, p, batch)
            return float(weights @ graph.lp)

        weighted(params)
        grad = graph.backward(weights).data
        eps = 1e-5
        for i in range(params.size):
            bump = np.zeros(params.size)
            bump[i] = eps
            fd = (
                weighted(ParameterVector(params.data + bump, params.layout))
                - weighted(ParameterVector(params.data - bump, params.layout))
            ) / (2 * eps)
            assert abs(grad[i] - fd) <= max(1e-8, 1e-5 * abs(fd))

    def test_upstream_shape_mismatch_is_dimension_error(self):
        graph, params, batch = random_mlp_case(1)
        forward(graph, params, batch)
        with pytest.raises(DimensionError):
            graph.backward(np.zeros(batch.n + 1))


class TestProperties:
    def test_gradient_check_random_graphs(self):
        for seed in range(10):
            graph, params, batch = random_mlp_case(seed)
            forward(graph, params, batch)
            assert_matches_fd(graph, params, batch, graph.backward())

    def test_backward_is_linear_in_the_loss(self):
        # gradient of a*L1 + b*L2 equals a*grad(L1) + b*grad(L2), with the
        # losses given by their upstream gradients dL/dlp
        a, b = 0.7, -2.5
        graph, params, batch = random_mlp_case(3)
        rng = np.random.default_rng(3)
        d1, d2 = rng.standard_normal(batch.n), rng.standard_normal(batch.n)
        forward(graph, params, batch)
        grad1 = graph.backward(d1).data
        grad2 = graph.backward(d2).data
        combo = graph.backward(a * d1 + b * d2).data
        np.testing.assert_allclose(combo, a * grad1 + b * grad2, atol=1e-12)
        # the cross-entropy is -mean(lp)
        np.testing.assert_allclose(
            graph.backward().data, graph.backward(np.full(batch.n, -1.0 / batch.n)).data, atol=1e-15
        )

    def test_determinism_bit_identical(self):
        runs = []
        for _ in range(2):
            graph, params, batch = random_mlp_case(11)
            loss = forward(graph, params, batch)
            grad = graph.backward()
            runs.append((loss, grad.data.tobytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


REDUCTION_ROWS = (1, 2, 31, 32, _FAST_ROWS - 1, _FAST_ROWS, 900)


class TestFastReductions:
    """The kernel's reductions are numpy's ``sum`` bit for bit.

    They rest on numpy's summation order: left to right from zero along a
    row of fewer than 8 entries, and row after row down the columns of a
    C-contiguous array with two or more columns.  A numpy that changes
    either order fails here first, under the name of that assumption.
    """

    @pytest.mark.parametrize("rows", REDUCTION_ROWS)
    def test_row_sum_is_numpy_row_sum(self, rows):
        rng = np.random.default_rng(rows)
        for cols in range(1, 13):
            # softmax numerators, and values of mixed sign and magnitude
            numer = np.exp(-3.0 * rng.random((rows, cols)) ** 2)
            mixed = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8, (rows, cols))
            for x in (numer, mixed):
                assert same_bits(_row_sum(x), x.sum(axis=1, keepdims=True)), (
                    f"numpy no longer sums a row of {cols} left to right ({rows} rows)"
                )

    @pytest.mark.parametrize("rows", REDUCTION_ROWS)
    def test_col_sum_is_numpy_col_sum(self, rows):
        rng = np.random.default_rng(rows)
        for cols in (*range(1, 13), 16, 64):
            g = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8, (rows, cols))
            assert same_bits(_col_sum(g), g.sum(axis=0)), (
                f"numpy no longer sums {cols} columns row after row ({rows} rows)"
            )

    @pytest.mark.parametrize(
        "widths", [[8, 16, 3], [8, 9], [8, 1, 3], [8, 16, 8, 5], [4, 3, 1]],
        ids=["shipped", "9-classes", "hidden-1", "two-hidden", "1-class"],
    )
    @pytest.mark.parametrize("rows", [1, 32, 900])
    def test_kernel_equals_plain_sum_oracle(self, widths, rows):
        graph, params = mlp_factory(rows, widths)
        rng = np.random.default_rng([rows, len(widths)])
        params = ParameterVector(params.data + 0.3 * rng.standard_normal(params.size), params.layout)
        feats = 2.0 * rng.standard_normal((rows, widths[0]))
        labels = rng.integers(0, widths[-1], size=rows)
        dlp = rng.standard_normal(rows)
        loss = forward(graph, params, batch_of(feats, labels, widths[-1]))
        assert loss == straight_line_mlp_loss(widths, params, feats, labels)
        expected = straight_line_mlp_grad(widths, params, feats, labels)
        assert same_bits(graph.backward().data, expected)
        expected = straight_line_mlp_grad(widths, params, feats, labels, dlp)
        assert same_bits(graph.backward(dlp).data, expected)


class TestAxpyUpdate:
    layout = theta_layout(2)

    def test_basic(self):
        p = ParameterVector(np.array([1.0, 1.0]), self.layout)
        d = FlatGradient(np.array([1.0, 0.0]), self.layout)
        out = axpy_update(p, d, 0.5)
        np.testing.assert_array_equal(out.data, [0.5, 1.0])
        np.testing.assert_array_equal(p.data, [1.0, 1.0])  # input untouched

    def test_zero_step(self):
        p = ParameterVector(np.array([1.0, 1.0]), self.layout)
        d = FlatGradient(np.array([2.0, 3.0]), self.layout)
        np.testing.assert_array_equal(axpy_update(p, d, 0.0).data, p.data)

    def test_exact_line_minimum(self):
        layout = theta_layout(1)
        p = ParameterVector(np.array([3.0]), layout)
        d = FlatGradient(np.array([3.0]), layout)
        assert axpy_update(p, d, 1.0).data[0] == 0.0

    def test_layout_mismatch(self):
        p = ParameterVector(np.array([1.0, 1.0]), self.layout)
        d = FlatGradient(np.zeros(3), theta_layout(3))
        with pytest.raises(DimensionError):
            axpy_update(p, d, 0.1)


class TestValueTypes:
    def test_parameter_vector_requires_finite(self):
        layout = theta_layout(2)
        with pytest.raises(NumericError):
            ParameterVector(np.array([1.0, np.nan]), layout)
        with pytest.raises(DimensionError):
            ParameterVector(np.zeros(3), layout)

    def test_immutability(self):
        p = ParameterVector(np.array([1.0, 2.0]), theta_layout(2))
        with pytest.raises(ValueError):
            p.data[0] = 5.0

    @pytest.mark.parametrize("cls", [ParameterVector, FlatGradient])
    def test_pickled_copy_is_frozen_and_bit_equal(self, cls):
        _, params = mlp_factory(3, [4, 5, 3])
        value = cls(params.data, params.layout)
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls
        assert copy.layout == value.layout
        assert copy.data.tobytes() == value.data.tobytes()
        assert not copy.data.flags.writeable
        with pytest.raises(ValueError):
            copy.data[0] = 5.0
