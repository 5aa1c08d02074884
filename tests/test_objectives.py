"""NPO loss and the analytic quadratic-pair objectives."""

import math

import numpy as np
import pytest

from ngdiff import (
    DimensionError,
    LabeledBatch,
    NpoLoss,
    UnboundedProblemError,
    parameter_vector,
)
from ngdiff.bench import mlp_factory
from ngdiff.objectives import BOUNDED_EXP, QuadPairProblem, lsp_minimizer

from _oracles import forward, lsp_gradient, lsp_value


def small_model(seed=3):
    graph, params = mlp_factory(seed, [4, 8, 3])
    rng = np.random.default_rng(5)
    batch = LabeledBatch(rng.standard_normal((6, 4)), rng.integers(0, 3, 6), 3)
    return graph, params, batch


def quad(kind="unbounded_quadratic", a=(0.0, 0.0), b=(1.0, 0.0)):
    return QuadPairProblem(np.array(a), np.array(b), kind)


class TestNpoLoss:
    def test_at_reference_equals_two_over_beta_ln2(self):
        graph, params, batch = small_model()
        for beta in (0.25, 1.0, 2.0, 7.3):
            value = NpoLoss(graph, beta, params).loss(params, batch)
            assert value == pytest.approx((2.0 / beta) * math.log(2.0), rel=1e-14)

    def test_log_ratio_one(self):
        # live probability e times the reference: loss = -2 log sigmoid(-1)
        graph, params, batch = small_model()
        npo = NpoLoss(graph, 1.0, params)
        shifted_ref = npo.reference_logprobs(batch) - 1.0
        value = npo.loss(params, batch, shifted_ref)
        assert value == pytest.approx(2.6265233750364456, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        graph, params, batch = small_model()
        npo = NpoLoss(graph, 1.7, params)
        ref = npo.reference_logprobs(batch)
        _, grad = npo.loss_and_grad(params, batch, ref)
        eps = 1e-6
        fd = np.zeros(params.size)
        for i in range(params.size):
            bump = np.zeros(params.size)
            bump[i] = eps
            fd[i] = (
                npo.loss(parameter_vector(params + bump), batch, ref)
                - npo.loss(parameter_vector(params - bump), batch, ref)
            ) / (2 * eps)
        err = np.abs(grad - fd)
        assert np.all(err <= np.maximum(1e-8, 1e-5 * np.abs(fd)))

    def test_gradient_is_kernel_vjp_of_sigmoid_weights(self):
        # dL/dlp_i = (2 / n) * sigmoid(beta * (lp_i - ref_i)), also where the
        # log-sigmoid saturates
        graph, params, batch = small_model()
        beta = 1.3
        npo = NpoLoss(graph, beta, params)
        ref = npo.reference_logprobs(batch) + np.array([40.0, 0.0, -3.5, 25.0, -30.0, 1.0])
        _, grad = npo.loss_and_grad(params, batch, ref)
        forward(graph, params, batch)
        weights = (2.0 / batch.n) / (1.0 + np.exp(-beta * (graph.lp - ref)))
        np.testing.assert_allclose(grad, graph.backward(weights)[0], rtol=1e-12, atol=1e-300)

    def test_a_stacked_retain_batch_rides_along_undifferentiated(self):
        graph, params, batch = small_model()
        rng = np.random.default_rng(9)
        retain = LabeledBatch(rng.standard_normal((6, 4)), rng.integers(0, 3, 6), 3)
        moved = parameter_vector(params + 0.1)
        npo = NpoLoss(graph, 0.7, params)
        ref = npo.reference_logprobs(batch)
        lone_value, lone_grad = npo.loss_and_grad(moved, batch, ref)
        # the loop's pass: the retain batch stacked in, scored and differentiated on the forget rows only
        cross_entropy = graph.run(moved, graph.bind(batch, retain))
        value = npo.score(graph.lp[: batch.n], ref)
        (grad,) = graph.backward(npo.upstream(), groups=1)
        assert value == lone_value
        assert grad.tobytes() == lone_grad.tobytes()
        assert cross_entropy == (forward(graph, moved, batch), forward(graph, moved, retain))

    def test_reference_logprob_clamp_flags_warning(self):
        graph, params, batch = small_model()
        # reference with an absurd margin against the true class
        bad = parameter_vector(params * 200.0)
        npo = NpoLoss(graph, 1.0, bad)
        lp = npo.reference_logprobs(batch)
        assert npo.clamp_warnings >= 1
        assert np.all(lp >= math.log(1e-12))

    def test_beta_must_be_positive(self):
        graph, params, _ = small_model()
        with pytest.raises(ValueError):
            NpoLoss(graph, 0.0, params)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_a_snapshot_of_the_wrong_size_is_refused(self, extra):
        graph, params, _ = small_model()
        wrong = parameter_vector(np.zeros(params.size + extra))
        with pytest.raises(DimensionError, match=rf"^reference snapshot of shape \({params.size + extra},\)"):
            NpoLoss(graph, 1.0, wrong)


class TestQuadPair:
    def test_retain_at_anchor_is_zero(self):
        p = quad()
        assert p.retain_loss(np.array([0.0, 0.0])) == 0.0

    def test_bounded_forget_at_anchor_is_zero(self):
        p = quad(BOUNDED_EXP)
        assert p.forget_loss(np.array([1.0, 0.0])) == 0.0

    def test_point_values(self):
        p = quad()
        theta = np.array([-0.5, 0.0])
        assert p.retain_loss(theta) == 0.125
        assert p.forget_loss(theta) == 1.125

    def test_bounded_forget_stays_in_unit_interval(self):
        # strictly below 1 wherever float64 can represent the gap
        # (exp(-q) saturates for squared distances beyond ~75)
        p = quad(BOUNDED_EXP)
        rng = np.random.default_rng(0)
        for _ in range(500):
            direction = rng.standard_normal(2)
            theta = p.b + rng.uniform(0, 8.0) * direction / np.linalg.norm(direction)
            lf = p.forget_loss(theta)
            assert 0.0 <= lf < 1.0
        for _ in range(100):
            theta = rng.standard_normal(2) * rng.uniform(0, 1000.0)
            assert 0.0 <= p.forget_loss(theta) <= 1.0

    def test_gradients_match_finite_differences(self):
        for kind in ("unbounded_quadratic", BOUNDED_EXP):
            p = quad(kind, a=(0.3, -1.0, 2.0), b=(1.0, 0.5, -0.2))
            rng = np.random.default_rng(4)
            for _ in range(20):
                theta = rng.standard_normal(3)
                eps = 1e-6
                for grad_fn, loss_fn in (
                    (p.retain_grad, p.retain_loss),
                    (p.forget_grad, p.forget_loss),
                ):
                    g = grad_fn(theta)
                    for i in range(3):
                        bump = np.zeros(3)
                        bump[i] = eps
                        fd = (loss_fn(theta + bump) - loss_fn(theta - bump)) / (2 * eps)
                        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ["unbounded_quadratic", BOUNDED_EXP])
    def test_loss_grad_returns_the_gradients_sum_of_squares(self, kind):
        p = quad(kind, a=(0.3, -1.0, 2.0), b=(1.0, 0.5, -0.2))
        for theta in np.random.default_rng(6).standard_normal((20, 3)):
            for loss_grad in (p.retain_loss_grad, p.forget_loss_grad):
                _, g, sq = loss_grad(theta)
                # a plain float, bit for bit the row's own ddot
                assert type(sq) is float and sq.hex() == float(g.dot(g)).hex()

    @pytest.mark.parametrize("kind", ["unbounded_quadratic", BOUNDED_EXP])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 33, 195])
    def test_a_groups_sums_of_squares_are_each_rows_ddot(self, kind, dim):
        # one vecdot over the group's rows gives each row's own ndarray.dot, huge and tiny rows included
        rng = np.random.default_rng(dim)
        p = quad(kind, a=rng.standard_normal(dim), b=rng.standard_normal(dim))
        thetas = rng.standard_normal((12, dim)) * 10.0 ** rng.integers(-150, 150, size=(12, 1))
        with np.errstate(all="ignore"):
            for loss_grads in (p.retain_loss_grads, p.forget_loss_grads):
                _, g, sq = loss_grads(thetas)
                assert [x.hex() for x in sq] == [float(row.dot(row)).hex() for row in g]

    def test_anchors_must_differ(self):
        with pytest.raises(ValueError):
            QuadPairProblem(np.zeros(2), np.zeros(2))

    def test_theta_of_another_shape_is_refused(self):
        p = quad()
        for theta in (np.zeros(3), np.zeros((1, 2)), np.zeros(1), [0.0]):
            for loss_grad in (p.retain_loss_grad, p.forget_loss_grad):
                with pytest.raises(ValueError, match=r"theta must have shape \(2,\)"):
                    loss_grad(theta)
        theta = np.array([0.25, -0.5])
        # a parameter vector, a raw array and a list give the same bits
        for loss_grad in (p.retain_loss_grad, p.forget_loss_grad):
            vectors = (parameter_vector(theta), theta, theta.tolist())
            frozen, raw, listed = (loss_grad(t) for t in vectors)
            assert repr(frozen) == repr(raw) == repr(listed)


class TestScalarization:
    def test_extremes(self):
        p = quad()
        theta = np.array([0.3, 0.7])
        assert lsp_value(p, theta, 1.0) == p.retain_loss(theta)
        assert lsp_value(p, theta, 0.0) == -p.forget_loss(theta)

    def test_weighted_value(self):
        p = quad()
        theta = np.array([-0.5, 0.0])
        assert lsp_value(p, theta, 0.75) == pytest.approx(0.75 * 0.125 - 0.25 * 1.125, abs=1e-15)

    def test_weight_out_of_range(self):
        p = quad()
        with pytest.raises(ValueError):
            lsp_value(p, np.zeros(2), 1.5)

    def test_minimizer_c1_is_retain_anchor(self):
        p = quad(a=(2.0, -1.0), b=(0.0, 3.0))
        np.testing.assert_allclose(lsp_minimizer(p, 1.0), p.a)

    @pytest.mark.parametrize("c,expected", [(0.75, (-0.5, 0.0)), (0.6, (-2.0, 0.0))])
    def test_minimizer_is_stationary_and_locally_minimal(self, c, expected):
        p = quad()
        theta = lsp_minimizer(p, c)
        np.testing.assert_allclose(theta, expected, atol=1e-12)
        assert np.linalg.norm(lsp_gradient(p, theta, c)) <= 1e-12
        rng = np.random.default_rng(9)
        base = lsp_value(p, theta, c)
        for _ in range(100):
            perturbed = theta + rng.standard_normal(2) * rng.uniform(1e-3, 1.0)
            assert lsp_value(p, perturbed, c) > base

    def test_minimizer_stationary_over_weight_grid(self):
        p = quad(a=(0.5, 2.0), b=(-1.0, 0.25))
        for c in np.linspace(0.51, 1.0, 25):
            theta = lsp_minimizer(p, c)
            assert np.linalg.norm(lsp_gradient(p, theta, c)) <= 1e-12

    def test_unbounded_weights_rejected(self):
        p = quad()
        with pytest.raises(UnboundedProblemError):
            lsp_minimizer(p, 0.5)
        with pytest.raises(UnboundedProblemError):
            lsp_minimizer(quad(BOUNDED_EXP), 0.75)
