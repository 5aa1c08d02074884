"""NPO loss and the analytic quadratic-pair objectives."""

import math

import numpy as np
import pytest

from ngdiff import (
    LabeledBatch,
    LossPair,
    NpoConfig,
    NpoLoss,
    ParameterVector,
    UnboundedProblemError,
    forward,
)
from ngdiff.bench import mlp_factory
from ngdiff.objectives import BOUNDED_EXP, QuadPairProblem, lsp_minimizer

from _oracles import lsp_gradient, lsp_value


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
            value = NpoLoss(graph, NpoConfig(beta, params)).loss(params, batch)
            assert value == pytest.approx((2.0 / beta) * math.log(2.0), rel=1e-14)

    def test_log_ratio_one(self):
        # live probability e times the reference: loss = -2 log sigmoid(-1)
        graph, params, batch = small_model()
        npo = NpoLoss(graph, NpoConfig(1.0, params))
        shifted_ref = npo.reference_logprobs(batch) - 1.0
        value = npo.loss(params, batch, shifted_ref)
        assert value == pytest.approx(2.6265233750364456, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        graph, params, batch = small_model()
        cfg = NpoConfig(1.7, params)
        npo = NpoLoss(graph, cfg)
        ref = npo.reference_logprobs(batch)
        _, grad = npo.loss_and_grad(params, batch, ref)
        eps = 1e-6
        fd = np.zeros(params.size)
        for i in range(params.size):
            bump = np.zeros(params.size)
            bump[i] = eps
            fd[i] = (
                npo.loss(ParameterVector(params.data + bump, params.layout), batch, ref)
                - npo.loss(ParameterVector(params.data - bump, params.layout), batch, ref)
            ) / (2 * eps)
        err = np.abs(grad.data - fd)
        assert np.all(err <= np.maximum(1e-8, 1e-5 * np.abs(fd)))

    def test_gradient_is_kernel_vjp_of_sigmoid_weights(self):
        # dL/dlp_i = (2 / n) * sigmoid(beta * (lp_i - ref_i)), also where the
        # log-sigmoid saturates
        graph, params, batch = small_model()
        beta = 1.3
        npo = NpoLoss(graph, NpoConfig(beta, params))
        ref = npo.reference_logprobs(batch) + np.array([40.0, 0.0, -3.5, 25.0, -30.0, 1.0])
        _, grad = npo.loss_and_grad(params, batch, ref)
        forward(graph, params, batch)
        weights = (2.0 / batch.n) / (1.0 + np.exp(-beta * (graph.lp - ref)))
        np.testing.assert_allclose(grad.data, graph.backward(weights).data, rtol=1e-12, atol=1e-300)

    def test_keeps_the_cross_entropy_of_its_forward(self):
        graph, params, batch = small_model()
        npo = NpoLoss(graph, NpoConfig(0.7, params))
        moved = ParameterVector(params.data + 0.1, params.layout)
        npo.loss_and_grad(moved, batch)
        assert npo.cross_entropy == forward(graph, moved, batch)

    def test_reference_logprob_clamp_flags_warning(self):
        graph, params, batch = small_model()
        # reference with an absurd margin against the true class
        bad = ParameterVector(params.data * 200.0, params.layout)
        cfg = NpoConfig(1.0, bad)
        npo = NpoLoss(graph, cfg)
        lp = npo.reference_logprobs(batch)
        assert cfg.clamp_warnings >= 1
        assert np.all(lp >= math.log(1e-12))

    def test_beta_must_be_positive(self):
        _, params, _ = small_model()
        with pytest.raises(ValueError):
            NpoConfig(0.0, params)


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

    def test_anchors_must_differ(self):
        with pytest.raises(ValueError):
            QuadPairProblem(np.zeros(2), np.zeros(2))


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


class TestLossPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossPair(math.inf, 1.0)
        with pytest.raises(ValueError):
            LossPair(1.0, math.nan)
        pair = LossPair(0.5, 2.0)
        assert (pair.retain_loss, pair.forget_loss) == (0.5, 2.0)
