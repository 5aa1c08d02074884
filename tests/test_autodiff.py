"""Forward/backward correctness of the autodiff core."""

import math

import numpy as np
import pytest

from ngdiff import (
    DimensionError,
    GraphStateError,
    LabeledBatch,
    NumericError,
    axpy_update,
    parameter_vector,
)
from ngdiff.autodiff import _FAST_ROWS, _adopt_vector, _col_sum, _row_sum
from ngdiff.bench import mlp_factory
from ngdiff.combiners import NGDIFF, PCGRAD, coefficient, combine, directions
from ngdiff.objectives import NpoLoss

from _oracles import (
    assert_matches_fd,
    forward,
    gradient,
    method_spec,
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
        zero = parameter_vector(np.zeros(params.size))
        batch = batch_of(np.random.default_rng(1).standard_normal((5, 4)), [0, 1, 2, 0, 1], 3)
        loss = forward(graph, zero, batch)
        assert loss == pytest.approx(math.log(3.0), abs=1e-15)

    def test_saturated_true_class_gives_zero_loss(self):
        # identity logits with an overwhelming margin: true-class probability
        # rounds to 1, so the cross-entropy is exactly 0
        graph, params = mlp_factory(0, [3, 3])
        ident = np.concatenate([50.0 * np.eye(3).ravel(), np.zeros(3)])
        params = parameter_vector(ident)
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

    @pytest.mark.parametrize("lone", [True, False], ids=["lone", "run-axis"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_a_vector_of_the_wrong_size_is_refused(self, extra, lone):
        # slicing would take a longer vector, and a shorter one fail further in
        graph, params = mlp_factory(0, [4, 3])
        wrong = parameter_vector(np.zeros(params.size + extra))
        bindings = graph.bind(batch_of(np.zeros((2, 4)), [0, 1], 3))
        message = rf"^parameter vector of shape \({params.size + extra},\), the graph takes \({params.size},\)$"
        with pytest.raises(DimensionError, match=message):
            graph.run(wrong if lone else np.array([wrong, wrong]), bindings)

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
        data = params.copy()
        segment(graph.widths, data, f"w{layer}")[...] = 1e308
        if layer == 2:
            segment(graph.widths, data, "b1")[...] = 20.0  # hidden units saturate at +1
        bad = parameter_vector(data)
        features = np.full((2, 3), 5.0) if layer == 1 else np.zeros((2, 3))
        with pytest.raises(NumericError, match=f"layer {layer}"):
            forward(graph, bad, batch_of(features, [0, 1], 3))

    def test_labels_out_of_range_is_dimension_error(self):
        # the batch takes a fourth class that the graph lacks
        graph, _ = mlp_factory(0, [4, 3])
        with pytest.raises(DimensionError, match="^labels out of class range$"):
            graph.bind(batch_of(np.zeros((2, 4)), [0, 3], 4))

    def test_only_rows_this_graph_bound_are_run(self):
        graph, params = mlp_factory(0, [4, 3])
        other, _ = mlp_factory(0, [4, 3])
        batch = batch_of(np.zeros((2, 4)), [0, 1], 3)
        raw = {"features": batch.features, "labels": batch.labels}
        for bindings in (raw, other.bind(batch)):
            with pytest.raises(DimensionError, match="^bindings must be what this graph's bind returned$"):
                graph.run(params, bindings)

    def test_a_pass_that_raises_leaves_no_cache(self):
        # the first pass's values must not pass for the failed one's
        graph, _ = mlp_factory(0, [1, 1, 2])
        bindings = graph.bind(batch_of([[10.0]], [1], 2))
        graph.run(parameter_vector([0.5, 0.0, 1.0, -1.0, 0.0, 0.0]), bindings)
        graph.backward()
        with pytest.raises(NumericError, match="^non-finite pre-activation in layer 1$"):
            graph.run(parameter_vector([1e308, 0.0, 1.0, -1.0, 0.0, 0.0]), bindings)
        for read in (graph.backward, lambda: graph.lp, lambda: graph.logits):
            with pytest.raises(GraphStateError):
                read()

    @pytest.mark.parametrize("refused", ["wrong-size", "raw-dict", "foreign"])
    def test_a_refused_run_leaves_no_cache(self, refused):
        # a run refused by its checks must not leave the previous pass readable
        graph, params = mlp_factory(0, [4, 3])
        batch = batch_of(np.eye(4)[:2], [0, 1], 3)
        bindings = graph.bind(batch)
        graph.run(params, bindings)
        graph.backward()
        if refused == "wrong-size":
            params = parameter_vector(np.zeros(params.size + 1))
        elif refused == "raw-dict":
            bindings = {"features": batch.features, "labels": batch.labels}
        else:
            bindings = mlp_factory(0, [4, 3])[0].bind(batch)
        with pytest.raises(DimensionError):
            graph.run(params, bindings)
        assert graph.failed is None
        for read in (graph.backward, lambda: graph.lp, lambda: graph.logits):
            with pytest.raises(GraphStateError):
                read()

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
        grad = graph.backward()[0]
        w1 = segment(graph.widths, params, "w1")
        logits = feats @ w1 + segment(graph.widths, params, "b1")
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        resid = (probs - np.eye(3)[labels]) / 6.0
        np.testing.assert_allclose(segment(graph.widths, grad, "w1"), feats.T @ resid, atol=1e-15)
        np.testing.assert_allclose(segment(graph.widths, grad, "b1"), resid.sum(axis=0), atol=1e-15)

    def test_gradient_equals_straight_line_oracle_exactly(self):
        # same floating-point operations in the same order, with and without dlp
        for seed in range(20):
            graph, params, batch = random_mlp_case(seed)
            feats, labels = batch.features, batch.labels
            dlp = np.random.default_rng(seed).standard_normal(batch.n)
            forward(graph, params, batch)
            expected = straight_line_mlp_grad(graph.widths, params, feats, labels)
            assert np.array_equal(graph.backward()[0], expected)
            expected = straight_line_mlp_grad(graph.widths, params, feats, labels, dlp)
            assert np.array_equal(graph.backward(dlp)[0], expected)

    def test_constant_loss_gives_zero_gradient(self):
        # a loss that does not depend on lp has dL/dlp = 0
        graph, params, batch = random_mlp_case(2)
        forward(graph, params, batch)
        assert np.all(graph.backward(np.zeros(batch.n))[0] == 0.0)

    def test_mlp_gradient_matches_finite_differences(self):
        graph, params, batch = random_mlp_case(7)
        forward(graph, params, batch)
        assert_matches_fd(graph, params, batch, graph.backward()[0])

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
        grad = graph.backward(weights)[0]
        eps = 1e-5
        for i in range(params.size):
            bump = np.zeros(params.size)
            bump[i] = eps
            fd = (
                weighted(parameter_vector(params + bump))
                - weighted(parameter_vector(params - bump))
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
            assert_matches_fd(graph, params, batch, graph.backward()[0])

    def test_backward_is_linear_in_the_loss(self):
        # gradient of a*L1 + b*L2 equals a*grad(L1) + b*grad(L2), with the
        # losses given by their upstream gradients dL/dlp
        a, b = 0.7, -2.5
        graph, params, batch = random_mlp_case(3)
        rng = np.random.default_rng(3)
        d1, d2 = rng.standard_normal(batch.n), rng.standard_normal(batch.n)
        forward(graph, params, batch)
        grad1 = graph.backward(d1)[0]
        grad2 = graph.backward(d2)[0]
        combo = graph.backward(a * d1 + b * d2)[0]
        np.testing.assert_allclose(combo, a * grad1 + b * grad2, atol=1e-12)
        # the cross-entropy is -mean(lp)
        np.testing.assert_allclose(
            graph.backward()[0], graph.backward(np.full(batch.n, -1.0 / batch.n))[0], atol=1e-15
        )

    def test_determinism_bit_identical(self):
        runs = []
        for _ in range(2):
            graph, params, batch = random_mlp_case(11)
            loss = forward(graph, params, batch)
            grad = graph.backward()[0]
            runs.append((loss, grad.tobytes()))
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
        params = parameter_vector(params + 0.3 * rng.standard_normal(params.size))
        feats = 2.0 * rng.standard_normal((rows, widths[0]))
        labels = rng.integers(0, widths[-1], size=rows)
        dlp = rng.standard_normal(rows)
        loss = forward(graph, params, batch_of(feats, labels, widths[-1]))
        assert loss == straight_line_mlp_loss(widths, params, feats, labels)
        expected = straight_line_mlp_grad(widths, params, feats, labels)
        assert same_bits(graph.backward()[0], expected)
        expected = straight_line_mlp_grad(widths, params, feats, labels, dlp)
        assert same_bits(graph.backward(dlp)[0], expected)


def lone_passes(graph, params, batches, dlps):
    """(loss, lp, logits, cross-entropy gradient, dL/dlp gradient) of each batch, one pass each."""
    out = []
    for batch, dlp in zip(batches, dlps):
        loss = forward(graph, params, batch)
        lp, logits = graph.lp.copy(), graph.logits.copy()
        out.append((loss, lp, logits, graph.backward()[0], graph.backward(dlp)[0]))
    return out


class TestStackedPass:
    """A pass over stacked equal-size batches is, group by group, their lone passes bit for bit."""

    @pytest.mark.parametrize("classes", [2, 3, 8, 9])
    @pytest.mark.parametrize("hidden", [[], [1], [16], [16, 8]], ids=str)
    @pytest.mark.parametrize("rows", [1, 32, _FAST_ROWS - 1, _FAST_ROWS, 200])
    def test_groups_equal_lone_passes_and_the_oracle(self, classes, hidden, rows):
        widths = [5, *hidden, classes]
        graph, params = mlp_factory(rows, widths)
        rng = np.random.default_rng([rows, classes, len(hidden)])
        params = parameter_vector(params + 0.3 * rng.standard_normal(params.size))
        batches = [
            batch_of(2.0 * rng.standard_normal((rows, 5)), rng.integers(0, classes, rows), classes)
            for _ in range(2)
        ]
        dlps = [rng.standard_normal(rows) for _ in batches]
        lone = lone_passes(graph, params, batches, dlps)

        losses = graph.run(params, graph.bind(*batches))
        assert losses == tuple(loss for loss, *_ in lone)
        assert same_bits(graph.lp, np.concatenate([lp for _, lp, *_ in lone]))
        assert same_bits(graph.logits, np.concatenate([logits for _, _, logits, *_ in lone]))
        grads = graph.backward()
        dlp_grads = graph.backward(np.concatenate(dlps))
        first = graph.backward(dlps[0], groups=1)
        assert len(grads) == len(dlp_grads) == 2 and len(first) == 1
        assert same_bits(first[0], lone[0][4])
        for batch, dlp, (loss, _, _, grad, dlp_grad), g, g_dlp in zip(batches, dlps, lone, grads, dlp_grads):
            assert same_bits(g, grad) and same_bits(g_dlp, dlp_grad)
            assert loss == straight_line_mlp_loss(widths, params, batch.features, batch.labels)
            assert same_bits(g, straight_line_mlp_grad(widths, params, batch.features, batch.labels))
            expected = straight_line_mlp_grad(widths, params, batch.features, batch.labels, dlp)
            assert same_bits(g_dlp, expected)

    def test_three_groups_and_bound_bindings(self):
        graph, params = mlp_factory(5, [4, 16, 3])
        rng = np.random.default_rng(5)
        batches = [batch_of(rng.standard_normal((40, 4)), rng.integers(0, 3, 40), 3) for _ in range(3)]
        lone = lone_passes(graph, params, batches, [np.ones(40)] * 3)
        bound = graph.bind(*batches)
        for _ in range(2):  # bindings checked once serve every run
            assert graph.run(params, bound) == tuple(loss for loss, *_ in lone)
            assert all(same_bits(g, one[3]) for g, one in zip(graph.backward(), lone))

    def test_bind_concatenates_the_batches_in_order(self):
        graph, _ = mlp_factory(0, [4, 3])
        rng = np.random.default_rng(3)
        batches = [batch_of(rng.standard_normal((5, 4)), rng.integers(0, 3, 5), 3) for _ in range(3)]
        bound = graph.bind(*batches)
        assert same_bits(bound["features"], np.concatenate([b.features for b in batches]))
        assert np.array_equal(bound["labels"], np.concatenate([b.labels for b in batches]))
        assert bound["groups"] == 3 and bound["widths"] is graph.widths
        # at_label picks each row's true-class entry out of the flat logits
        assert np.array_equal(bound["at_label"], np.arange(15) * 3 + bound["labels"])

    def test_labels_are_checked_against_the_graph_not_the_class_count(self):
        # a batch declaring more classes binds while its labels fit the graph
        graph, params = mlp_factory(0, [4, 3])
        rng = np.random.default_rng(4)
        features, labels = rng.standard_normal((6, 4)), rng.integers(0, 3, 6)
        wide = graph.run(params, graph.bind(batch_of(features, labels, 5)))
        assert wide == graph.run(params, graph.bind(batch_of(features, labels, 3)))

    def test_batches_of_unequal_size_do_not_stack(self):
        graph, _ = mlp_factory(0, [4, 3])
        short, long, wide = (
            batch_of(np.zeros((n, d)), np.zeros(n, dtype=np.int64), 3) for n, d in ((5, 4), (6, 4), (5, 5))
        )
        for batches in ((short, long), (short, wide), ()):
            with pytest.raises(DimensionError, match="^the batches of one pass must have one shape$"):
                graph.bind(*batches)

    def test_backward_of_groups_the_pass_lacks_is_rejected(self):
        graph, params = mlp_factory(0, [4, 3])
        batch = batch_of(np.zeros((2, 4)), [0, 1], 3)
        graph.run(params, graph.bind(batch, batch))
        for groups in (0, 3):
            with pytest.raises(DimensionError, match=f"^cannot differentiate {groups} of 2 groups$"):
                graph.backward(groups=groups)


# [1, 1, 2] MLPs: w1, b1, w2 (1x2), b2.  SAFE keeps rows up to 1e308 finite
# (tanh saturates at w1 = 0.5), OVERFLOWS overflows layer 1 at a row of
# 1e308, and CHAIN also overflows the logits once tanh saturates
SAFE = [0.5, 0.0, 1.0, -1.0, 0.0, 0.0]
OVERFLOWS = [2.0, 0.0, 1.0, -1.0, 0.0, 0.0]
CHAIN = [2.0, 0.0, 1e308, -1e308, 0.0, 0.0]


def messages(failed):
    """The messages of a ``Graph.failed``, None where a group met no error."""
    return [[None if error is None else str(error) for error in errors] for errors in failed]


class TestRunAxis:
    """A pass over several parameter vectors is, run by run and group by group, their lone passes bit for bit."""

    @pytest.mark.parametrize("classes", [2, 3, 9])
    @pytest.mark.parametrize("hidden", [[], [1], [16], [16, 8]], ids=str)
    @pytest.mark.parametrize("rows", [1, 32, _FAST_ROWS, 200])
    @pytest.mark.parametrize("runs", [2, 7])
    def test_runs_equal_lone_passes(self, classes, hidden, rows, runs):
        widths = [5, *hidden, classes]
        graph, params = mlp_factory(rows, widths)
        rng = np.random.default_rng([rows, classes, len(hidden), runs])
        vectors = [
            parameter_vector(params + 0.3 * rng.standard_normal(params.size))
            for _ in range(runs)
        ]
        batches = [
            batch_of(2.0 * rng.standard_normal((rows, 5)), rng.integers(0, classes, rows), classes)
            for _ in range(2)
        ]
        dlps = rng.standard_normal((runs, 2 * rows))
        bound = graph.bind(*batches)
        lone = []
        for vector, dlp in zip(vectors, dlps):
            losses = graph.run(vector, bound)
            lone.append((losses, graph.lp.copy(), graph.logits.copy(), graph.backward(), graph.backward(dlp),
                         graph.backward(dlp[:rows], groups=1)))

        losses = graph.run(np.array(vectors), bound)
        lp, logits = graph.lp, graph.logits
        passes = graph.backward(), graph.backward(dlps), graph.backward(dlps[:, :rows], groups=1)
        assert graph.failed is None
        assert losses == tuple(one[0] for one in lone)
        assert lp.shape == (runs, 2 * rows) and logits.shape == (runs, 2 * rows, classes)
        for flat, _ in passes:
            assert not flat.flags.writeable and flat.shape[:1] == (runs,)
        for r, (_, one_lp, one_logits, *one_grads) in enumerate(lone):
            assert same_bits(lp[r], one_lp) and same_bits(logits[r], one_logits)
            for (flat, norms), want in zip(passes, one_grads):
                assert len(flat[r]) == len(norms[r]) == len(want)
                for data, norm, grad in zip(flat[r], norms[r], want):
                    assert same_bits(data, grad) and repr(norm) == root_of_squares(grad)

    def test_a_run_that_overflows_fails_its_own_slices(self):
        graph, _ = mlp_factory(0, [1, 1, 2])
        batches = [batch_of([[1e308]], [1], 2), batch_of([[4.0]], [1], 2)]
        theta = np.array([SAFE, OVERFLOWS, CHAIN])
        losses = graph.run(theta, graph.bind(*batches))
        # tanh(inf) is 1, so the second run's first group ends with a finite
        # loss; it failed in layer 1 all the same
        assert math.isfinite(losses[1][0])
        layer1, cross_entropy = "non-finite pre-activation in layer 1", "non-finite cross-entropy"
        expected = [[None, None], [layer1, None], [layer1, cross_entropy]]
        assert messages(graph.failed) == expected
        with np.errstate(all="ignore"):  # as in the loops, which check instead
            flat, _ = graph.backward()  # a failed slice's gradient is not to be read
        assert messages(graph.failed) == expected
        for params, run_losses, run_flat, errors in zip(theta, losses, flat, expected):
            for batch, loss, data, error in zip(batches, run_losses, run_flat, errors):
                if error is None:  # its lone pass gives the same values
                    assert forward(graph, parameter_vector(params), batch) == loss
                    assert same_bits(graph.backward()[0], data)
                else:  # its lone pass raises the recorded error
                    with pytest.raises(NumericError, match=f"^{error}$"):
                        forward(graph, parameter_vector(params), batch)

    def test_backward_records_a_gradient_row_with_a_non_finite_entry(self):
        graph, _ = mlp_factory(0, [1, 1, 2])
        batches = [batch_of([[1e-308]], [1], 2), batch_of([[0.0]], [1], 2)]
        graph.run(np.array([SAFE, CHAIN]), graph.bind(*batches))
        assert graph.failed is None
        with np.errstate(all="ignore"):
            graph.backward()
            assert messages(graph.failed) == [[None, None], ["gradient entries must be finite", None]]
            forward(graph, parameter_vector(CHAIN), batches[0])
            with pytest.raises(NumericError, match="^gradient entries must be finite$"):
                graph.backward()

    def test_a_huge_finite_gradient_row_is_accepted(self):
        graph, params = mlp_factory(0, [1, 2])
        params = [1.0, -1.0, 0.0, 0.0]
        graph.run(np.array([params, params]), graph.bind(batch_of([[1e200]], [1], 2)))
        with np.errstate(over="ignore"):
            flat, norms = graph.backward()
        assert graph.failed is None
        assert flat[:, 0].tolist() == [[1e200, -1e200, 1.0, -1.0]] * 2
        assert norms == [[math.inf]] * 2

    def test_dlp_of_the_wrong_shape_is_rejected(self):
        graph, params = mlp_factory(0, [4, 3])
        batch = batch_of(np.zeros((2, 4)), [0, 1], 3)
        graph.run(np.array([params, params]), graph.bind(batch))
        with pytest.raises(DimensionError, match=r"^dlp shape \(2,\) does not match \(2, 2\)$"):
            graph.backward(np.ones(2))


class TestAxpyUpdate:
    def test_basic(self):
        p = parameter_vector([1.0, 1.0])
        d = gradient([1.0, 0.0])
        out = axpy_update(p, d, 0.5)
        np.testing.assert_array_equal(out, [0.5, 1.0])
        np.testing.assert_array_equal(p, [1.0, 1.0])  # input untouched

    def test_zero_step(self):
        p = parameter_vector([1.0, 1.0])
        d = gradient([2.0, 3.0])
        np.testing.assert_array_equal(axpy_update(p, d, 0.0), p)

    def test_exact_line_minimum(self):
        assert axpy_update(parameter_vector([3.0]), gradient([3.0]), 1.0)[0] == 0.0

    @pytest.mark.parametrize(
        "params, direction", [([1.0, 1.0], [0.0, 0.0, 0.0]), ([1.0, 1.0], [1.0]), ([1.0], [1.0, 1.0])]
    )
    def test_size_mismatch(self, params, direction):
        # numpy would broadcast a size-1 operand against the other
        with pytest.raises(DimensionError, match="^axpy_update: direction of shape"):
            axpy_update(parameter_vector(params), gradient(direction), 0.1)


class TestValueTypes:
    def test_parameter_vector_requires_finite(self):
        with pytest.raises(NumericError):
            parameter_vector([1.0, np.nan])

    def test_parameter_vector_is_a_flat_frozen_copy(self):
        values = np.arange(6.0).reshape(2, 3)
        p = parameter_vector(values)
        assert p.shape == (6,) and p.dtype == np.float64 and p.base is None
        values[0, 0] = 5.0
        assert p[0] == 0.0
        with pytest.raises(ValueError):
            p[0] = 5.0

    @pytest.mark.parametrize("source", ["mlp_factory", "axpy_update", "backward", "combine", "NpoLoss.loss_and_grad"])
    def test_every_made_vector_is_read_only(self, source):
        graph, params = mlp_factory(6, [4, 5, 3])
        batch = batch_of(np.eye(4)[:3], [0, 1, 2], 3)
        forward(graph, params, batch)
        g_r, g_f = graph.backward()[0], graph.backward(np.ones(3))[0]
        vector = {
            "mlp_factory": lambda: params,
            "axpy_update": lambda: axpy_update(params, g_r, 0.1),
            "backward": lambda: g_r,
            "combine": lambda: combine(method_spec("ngdiff"), g_r, g_f).direction,
            "NpoLoss.loss_and_grad": lambda: NpoLoss(graph, 0.5, params).loss_and_grad(params, batch)[1],
        }[source]()
        assert type(vector) is np.ndarray and vector.dtype == np.float64 and vector.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 5.0


HUGE = [[1e200, 1.0], [1e300, -1e300]]  # finite, but their sums of squares overflow
NON_FINITE = [
    [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0],
    [1e300, math.nan], [math.inf, 1e300], [-1e300, -math.inf], [math.inf, -math.inf],
]


def root_of_squares(data: np.ndarray) -> str:
    with np.errstate(over="ignore"):
        return repr(math.sqrt(data.dot(data)))


class TestFinitenessRule:
    """One sum of squares checks a vector; for a gradient, its root is the norm."""

    @pytest.mark.filterwarnings("error")  # the constructors never warn
    @pytest.mark.parametrize("values", HUGE)
    @pytest.mark.parametrize("make", [parameter_vector, gradient])
    def test_huge_finite_entries_are_accepted(self, make, values):
        assert make(values).tolist() == values

    @pytest.mark.parametrize("values", HUGE)
    def test_huge_finite_update_is_accepted(self, values):
        params = parameter_vector(values)
        step = gradient([1.0, -1.0])
        with np.errstate(over="ignore"):  # as in the loops, which check instead
            updated = axpy_update(params, step, 1.0)
        assert updated.tolist() == (np.array(values) - [1.0, -1.0]).tolist()

    def test_huge_finite_backward_is_accepted(self):
        graph, params = mlp_factory(0, [1, 2])
        params = parameter_vector([1.0, -1.0, 0.0, 0.0])
        with np.errstate(over="ignore"):
            assert forward(graph, params, batch_of([[1e200]], [1], 2)) == 2e200
            grad = graph.backward()[0]
        assert grad.tolist() == [1e200, -1e200, 1.0, -1.0]
        assert root_of_squares(grad) == "inf"

    @pytest.mark.parametrize("values", NON_FINITE)
    @pytest.mark.parametrize("make, what", [(parameter_vector, "parameter"), (gradient, "gradient")])
    def test_non_finite_entries_are_rejected(self, make, what, values):
        with pytest.raises(NumericError, match=f"^{what} entries must be finite$"):
            make(values)
        # the adopt path relies on its caller's errstate, as in the loops
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=f"^{what} entries must be finite$"
        ):
            _adopt_vector(np.array(values), what)

    @pytest.mark.parametrize(
        "params, step", [([1e300, 1.0], [-1e300, 0.0]), ([1e300, -1e300], [-1e300, 1e300])]
    )
    def test_overflowing_update_is_rejected(self, params, step):
        params = parameter_vector(params)
        step = gradient(step)
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="^parameter entries must be finite$"
        ):
            axpy_update(params, step, 1e10)

    @pytest.mark.parametrize("kind", [NGDIFF, PCGRAD])
    @pytest.mark.parametrize("values", [*HUGE, [0.0, 0.0], [3.0, -4.0], [1e-200, 1e-200]])
    def test_combine_takes_the_root_of_the_sum_of_squares(self, kind, values):
        g_r, g_f = gradient(values), gradient([0.5, -2.0])
        norms = [float(root_of_squares(g)) for g in (g_r, g_f)]
        spec = method_spec(kind)
        with np.errstate(over="ignore"):
            out = combine(spec, g_r, g_f)
        c = coefficient(spec, g_r, g_f, *norms)[0]
        assert repr(out.coefficient) == repr(c)
        normalized = [True] if kind == NGDIFF else None
        assert same_bits(out.direction, directions([c], g_r[None], g_f[None], *([n] for n in norms), normalized)[0])

    def test_kernel_norms_are_the_root_of_the_sum_of_squares(self):
        graph, params, batch = random_mlp_case(4)
        vectors = np.array([params, parameter_vector(params + 0.25)])
        graph.run(vectors, graph.bind(batch))
        for flat, norms in (graph.backward(), graph.backward(np.tile(np.linspace(-1.0, 1.0, batch.n), (2, 1)))):
            for rows, run_norms in zip(flat, norms):
                assert [repr(norm) for norm in run_norms] == [root_of_squares(row) for row in rows]
