"""Labeled batches, dataset generators, splits, and the MLP factory."""

import numpy as np
import pytest

from ngdiff import LabeledBatch, NumericError, ParameterVector, forward
from ngdiff.bench import gen_gaussian_clusters, mlp_factory, split_forget_retain
from ngdiff.engine import finetune

from _oracles import assert_matches_fd, segment


class TestLabeledBatch:
    def test_features_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            LabeledBatch(np.zeros(3), np.array([0, 1, 2]), 3)

    def test_non_finite_feature_rejected(self):
        features = np.zeros((2, 3))
        features[1, 2] = np.inf
        with pytest.raises(NumericError):
            LabeledBatch(features, np.array([0, 1]), 3)

    def test_features_are_a_frozen_copy(self):
        features = np.zeros((2, 3))
        batch = LabeledBatch(features, np.array([0, 1]), 3)
        features[0, 0] = 1.0
        assert batch.features[0, 0] == 0.0
        with pytest.raises(ValueError):
            batch.features[0, 0] = 1.0

    def test_generated_features_are_read_only(self):
        data = gen_gaussian_clusters(0, 3, 5, 4, 4.0)
        assert data.features.dtype == np.float64 and data.features.shape == (15, 4)
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0


class TestGaussianClusters:
    def test_deterministic_in_seed(self):
        a = gen_gaussian_clusters(42, 3, 10, 5, 2.0)
        b = gen_gaussian_clusters(42, 3, 10, 5, 2.0)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        c = gen_gaussian_clusters(43, 3, 10, 5, 2.0)
        assert a.features.tobytes() != c.features.tobytes()

    def test_minimal_dataset_size(self):
        data = gen_gaussian_clusters(0, 2, 1, 2, 1.0)
        assert data.n == 2
        assert sorted(data.labels.tolist()) == [0, 1]

    def test_centers_land_on_axes(self):
        data = gen_gaussian_clusters(7, 3, 2000, 4, 6.0)
        feats = data.features
        for k in range(3):
            mean = feats[data.labels == k].mean(axis=0)
            expected = np.zeros(4)
            expected[k] = 6.0
            np.testing.assert_allclose(mean, expected, atol=0.15)

    def test_separable_data_trains_to_high_accuracy(self):
        # separability oracle: plain logistic regression fits the task
        data = gen_gaussian_clusters(11, 3, 50, 3, 10.0)
        graph, params = mlp_factory(12, [3, 3])
        params = finetune(graph, params, data, 200, 0.5)
        forward(graph, params, data)
        pred = np.argmax(graph.logits, axis=1)
        assert (pred == data.labels).mean() >= 0.99

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_clusters(0, 1, 10, 4, 1.0)
        with pytest.raises(ValueError):
            gen_gaussian_clusters(0, 3, 10, 2, 1.0)  # dim < classes
        with pytest.raises(ValueError):
            gen_gaussian_clusters(0, 3, 0, 4, 1.0)
        with pytest.raises(ValueError):
            gen_gaussian_clusters(0, 3, 10, 4, 0.0)


class TestSplit:
    def test_counts_preserved(self):
        data = gen_gaussian_clusters(1, 3, 100, 4, 3.0)
        split = split_forget_retain(data, 0)
        assert split.retain.n == 200
        assert split.forget.n == 100
        assert np.all(split.forget.labels == 0)
        assert not np.any(split.retain.labels == 0)

    def test_absent_class_rejected(self):
        data = gen_gaussian_clusters(1, 3, 10, 4, 3.0)
        with pytest.raises(ValueError):
            split_forget_retain(data, 7)

    def test_partition_is_exact_multiset_complement(self):
        data = gen_gaussian_clusters(5, 4, 25, 6, 2.0)
        split = split_forget_retain(data, 2)
        rows = np.vstack([split.retain.features, split.forget.features])
        labels = np.concatenate([split.retain.labels, split.forget.labels])
        original = sorted(map(tuple, np.column_stack([data.features, data.labels])))
        recombined = sorted(map(tuple, np.column_stack([rows, labels])))
        assert original == recombined


    def test_take_cuts_frozen_rows(self):
        data = gen_gaussian_clusters(0, 3, 5, 4, 4.0)
        idx = np.array([3, 0, 14])
        batch = data.take(idx)
        np.testing.assert_array_equal(batch.features, data.features[idx])
        np.testing.assert_array_equal(batch.labels, data.labels[idx])
        assert batch.class_count == 3 and batch.n == 3
        with pytest.raises(ValueError):
            batch.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            batch.labels[0] = 1
        with pytest.raises(ValueError):
            data.take(np.array([], dtype=np.int64))


class TestMlpFactory:
    def test_parameter_count_single_layer(self):
        _, params = mlp_factory(0, [3, 3])
        assert params.size == 3 * 3 + 3

    def test_parameter_count_hidden(self):
        _, params = mlp_factory(0, [4, 16, 3])
        assert params.size == 4 * 16 + 16 + 16 * 3 + 3

    def test_same_seed_identical(self):
        _, a = mlp_factory(9, [4, 8, 3])
        _, b = mlp_factory(9, [4, 8, 3])
        assert a.data.tobytes() == b.data.tobytes()

    def test_init_bounds_match_fan_sizes(self):
        _, params = mlp_factory(3, [4, 16, 3])
        w1 = segment(params.layout, params.data, "w1")
        assert np.abs(w1).max() <= np.sqrt(6.0 / (4 + 16))
        assert np.all(segment(params.layout, params.data, "b1") == 0.0)

    def test_gradient_check(self):
        graph, params = mlp_factory(13, [4, 16, 3])
        rng = np.random.default_rng(14)
        batch = LabeledBatch(rng.standard_normal((5, 4)), rng.integers(0, 3, 5), 3)
        # off the zero-bias init
        params = ParameterVector(params.data + 0.05 * rng.standard_normal(params.size), params.layout)
        forward(graph, params, batch)
        assert_matches_fd(graph, params, batch, graph.backward())

    def test_needs_two_widths(self):
        with pytest.raises(ValueError):
            mlp_factory(0, [4])

