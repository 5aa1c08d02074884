"""Probe-based step-size selection: fits, guards, cadence, and bookkeeping."""

import math

import numpy as np
import pytest

from ngdiff import (
    LrState,
    ProbeError,
    fit_quadratic,
    maybe_update,
    optimal_lr,
    parameter_vector,
    probe_losses,
    step_size,
)
from ngdiff.bench import mlp_factory, LabeledBatch
from ngdiff.engine import LrConfig
from ngdiff.scheduler import ETA_GROWTH_CAP

from _oracles import forward, gradient, straight_line_mlp_loss


def auto_lr(update_period=10, probe_epsilon=1e-3):
    return LrConfig("auto", None, update_period, probe_epsilon)


def quadratic_loss(H, center=None):
    H = np.asarray(H, dtype=float)
    center = np.zeros(len(H)) if center is None else np.asarray(center, dtype=float)

    def loss(p):
        d = p - center
        return 0.5 * float(d @ H @ d)

    return loss


class TestProbeLosses:
    def test_scalar_quadratic_probe_values(self):
        loss = quadratic_loss([[1.0]])
        lm, l0, lp, probe = probe_losses(loss, parameter_vector([3.0]), gradient([3.0]), 0.1, 4.5)
        assert (lm, l0, lp) == (3.6450000000000005, 4.5, 5.444999999999999)
        assert probe == 0.1

    def test_zero_direction_gives_equal_losses(self):
        loss = quadratic_loss(np.eye(2))
        p = parameter_vector([1.0, 2.0])
        lm, l0, lp, _ = probe_losses(loss, p, gradient([0.0, 0.0]), 0.5, loss(p))
        assert lm == l0 == lp

    def test_matches_independent_forward_reimplementation(self):
        widths = [4, 6, 3]
        graph, params = mlp_factory(5, widths)
        rng = np.random.default_rng(8)
        batch = LabeledBatch(rng.standard_normal((7, 4)), rng.integers(0, 3, 7), 3)
        direction = gradient(rng.standard_normal(params.size))

        def loss(p):
            return forward(graph, p, batch)

        lm, l0, lp, probe = probe_losses(loss, params, direction, 0.05, loss(params))
        feats, labels = batch.features, batch.labels
        minus = parameter_vector(params - probe * direction)
        plus = parameter_vector(params + probe * direction)
        np.testing.assert_allclose(lm, straight_line_mlp_loss(widths, minus, feats, labels), rtol=1e-12)
        np.testing.assert_allclose(lp, straight_line_mlp_loss(widths, plus, feats, labels), rtol=1e-12)

    def test_parameters_bit_identical_after_probing(self):
        loss = quadratic_loss(np.diag([1.0, 4.0]))
        p = parameter_vector([1.0, 1.0])
        before = p.tobytes()
        probe_losses(loss, p, gradient([1.0, 4.0]), 0.3, loss(p))
        assert p.tobytes() == before

    def test_shrinks_probe_on_nonfinite_loss(self):
        calls = []

        def loss(p):
            calls.append(float(p[0]))
            x = float(p[0])
            return math.inf if abs(x - 1.0) > 0.05 else (x - 1.0) ** 2

        p = parameter_vector([1.0])
        lm, l0, lp, probe = probe_losses(loss, p, gradient([1.0]), 1.0, loss(p))
        assert probe == pytest.approx(0.01)
        assert math.isfinite(lm) and math.isfinite(lp)

    def test_gives_up_after_three_retries(self):
        def loss(p):
            return math.inf if p[0] != 1.0 else 0.0

        p = parameter_vector([1.0])
        with pytest.raises(ProbeError):
            probe_losses(loss, p, gradient([1.0]), 1.0, loss(p))


class TestFitQuadratic:
    def test_exact_parabola_through_probe_points(self):
        fit = fit_quadratic(0.1, 3.645, 4.5, 5.445)
        assert fit.a1 == pytest.approx(9.0, rel=1e-12)
        assert fit.a2 == pytest.approx(4.5, rel=1e-10)
        # the parabola interpolates all three points
        for x, y in ((-0.1, 3.645), (0.0, 4.5), (0.1, 5.445)):
            assert fit.a2 * x * x + fit.a1 * x + fit.loss_zero == pytest.approx(y, rel=1e-12)

    def test_symmetric_losses_have_zero_slope(self):
        fit = fit_quadratic(0.2, 7.5, 5.0, 7.5)
        assert fit.a1 == 0.0

    def test_cubic_slope_error_shrinks_quadratically(self):
        # L(theta) = theta^3 near theta=1 along d=1: the fitted slope
        # approaches the true directional derivative at O(probe^2)
        errors = []
        for probe in (0.1, 0.01, 0.001):
            lm, l0, lp = (1 - probe) ** 3, 1.0, (1 + probe) ** 3
            errors.append(abs(fit_quadratic(probe, lm, l0, lp).a1 - 3.0))
        assert errors[0] == pytest.approx(0.1**2, rel=1e-9)
        assert errors[1] == pytest.approx(0.01**2, rel=1e-6)
        assert errors[0] / errors[1] == pytest.approx(100.0, rel=1e-6)


class TestOptimalLr:
    def test_exact_scalar_line_minimum(self):
        assert optimal_lr(fit_quadratic(0.1, 3.645, 4.5, 5.445)) == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_curvature_guards(self):
        assert optimal_lr(fit_quadratic(0.1, 1.0, 1.0, 1.0)) is None  # flat
        assert optimal_lr(fit_quadratic(0.1, 1.0, 2.0, 1.0)) is None  # concave

    def test_negative_minimizer_guards(self):
        # decreasing toward -probe: slope negative, curvature positive
        assert optimal_lr(fit_quadratic(0.1, 5.445, 4.5, 3.645)) is None

    def test_rayleigh_quotient_on_bowl(self):
        H = np.diag([1.0, 4.0])
        loss = quadratic_loss(H)
        theta = parameter_vector([1.0, 1.0])
        g = H @ theta
        d = gradient(g)
        lm, l0, lp, probe = probe_losses(loss, theta, d, 0.37, loss(theta))
        eta = optimal_lr(fit_quadratic(probe, lm, l0, lp))
        assert eta == pytest.approx(17.0 / 65.0, rel=1e-12)

    def test_exactness_regardless_of_probe_size(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            A = rng.standard_normal((dim, dim))
            H = A @ A.T + dim * np.eye(dim)  # positive definite
            center = rng.standard_normal(dim)
            loss = quadratic_loss(H, center)
            theta = parameter_vector(rng.standard_normal(dim))
            d_vec = rng.standard_normal(dim)
            d = gradient(d_vec)
            g = H @ (theta - center)
            expected = float(g @ d_vec) / float(d_vec @ H @ d_vec)
            if expected <= 0:
                continue
            for probe in (1e-3, 0.1, 2.0):
                lm, l0, lp, used = probe_losses(loss, theta, d, probe, loss(theta))
                eta = optimal_lr(fit_quadratic(used, lm, l0, lp))
                assert eta == pytest.approx(expected, rel=1e-8)

    def test_half_of_descent_bound(self):
        # the selected step is exactly half the largest step that still
        # lowers a quadratic retain loss, so the strict-descent window holds
        H = np.diag([2.0, 3.0, 0.5])
        loss = quadratic_loss(H)
        theta = parameter_vector([1.0, -2.0, 0.5])
        d_vec = np.array([0.3, -1.0, 0.2])
        d = gradient(d_vec)
        lm, l0, lp, probe = probe_losses(loss, theta, d, 0.05, loss(theta))
        eta = optimal_lr(fit_quadratic(probe, lm, l0, lp))
        g = H @ theta
        bound = 2.0 * float(g @ d_vec) / float(d_vec @ H @ d_vec)
        assert eta == pytest.approx(bound / 2.0, rel=1e-10)
        assert 0.0 < eta < bound


class TestMaybeUpdate:
    def test_off_cadence_is_identity(self):
        state = LrState(eta=0.3)
        calls = []

        def loss(p):
            calls.append(1)
            return 0.0

        p = parameter_vector([1.0])
        out = maybe_update(state, 3, auto_lr(), loss, p, gradient([1.0]), 0.0)
        assert out is state
        assert calls == []

    def test_single_update_reaches_line_minimum(self):
        H = np.diag([1.0, 4.0])
        loss = quadratic_loss(H)
        theta = parameter_vector([1.0, 1.0])
        g = H @ theta
        d = gradient(g)
        state = maybe_update(LrState(None), 0, auto_lr(), loss, theta, d, loss(theta))
        assert state.eta is not None
        stepped = parameter_vector(theta - state.eta * d)
        residual = float((H @ stepped) @ d) / np.linalg.norm(d)
        assert abs(residual) <= 1e-10

    def test_guard_on_concave_region_keeps_eta(self):
        # quartic theta^4/4 - theta^2 has negative curvature at theta=0.5
        def loss(p):
            x = float(p[0])
            return x**4 / 4.0 - x**2

        theta = parameter_vector([0.5])
        d = gradient([1.0])
        state = LrState(eta=0.25)
        out = maybe_update(state, 0, auto_lr(), loss, theta, d, loss(theta))
        assert out.eta == 0.25
        assert out.guard_trips == 1

    def test_probe_failure_counts_as_guard(self):
        def loss(p):
            return math.inf if p[0] != 1.0 else 0.5

        theta = parameter_vector([1.0])
        state = maybe_update(LrState(eta=0.1), 0, auto_lr(), loss, theta, gradient([1.0]), 0.5)
        assert state.eta == 0.1
        assert state.guard_trips == 1

    @pytest.mark.parametrize("fitted", [False, True])
    def test_growth_past_the_cap_is_a_capped_guard_trip(self, fitted):
        # the line minimum of x^2/2 from x=1 along d=1 is eta=1, ten times the
        # current step size; only a step size that came from a fit is capped
        theta = parameter_vector([1.0])
        fit = fit_quadratic(0.1, 0.405, 0.5, 0.605) if fitted else None
        state = LrState(eta=0.1, fitted=fit)
        out = maybe_update(state, 0, auto_lr(), quadratic_loss([[1.0]]), theta, gradient([1.0]), 0.5)
        if fitted:
            assert out.eta == ETA_GROWTH_CAP * 0.1
            assert out.guard_trips == 1
        else:
            assert abs(out.eta - 1.0) <= 1e-12
            assert out.guard_trips == 0
        assert out.fitted.probe == 0.1

    @pytest.mark.parametrize("probe", [1e-200, 1e-300, 5e-324])
    @pytest.mark.parametrize("fitted", [False, True])
    def test_probe_too_small_to_fit_is_a_guard_trip(self, probe, fitted):
        # 2*probe*probe rounds to 0: no curvature is measurable, so the step
        # size stays what it was, as on a flat or concave fit
        theta = parameter_vector([1.0])
        fit = fit_quadratic(0.1, 0.405, 0.5, 0.605) if fitted else None
        lr = auto_lr(probe_epsilon=probe)
        state = LrState(eta=probe if fitted else None, fitted=fit)
        out = maybe_update(state, 0, lr, quadratic_loss([[1.0]]), theta, gradient([1.0]), 0.5)
        assert out.eta == state.eta and step_size(out, lr) == probe
        assert out.guard_trips == 1
        assert out.fitted.probe == probe and math.isnan(out.fitted.a2)

    @pytest.mark.parametrize("period", [10, 7])
    def test_probe_bookkeeping_two_per_event(self, period):
        loss_calls = []
        H = np.eye(2)

        def loss(p):
            loss_calls.append(1)
            return 0.5 * float(p @ H @ p)

        lr = auto_lr(update_period=period, probe_epsilon=1e-2)
        state = LrState(None)
        theta = parameter_vector([2.0, 1.0])
        for step in range(25):
            d = gradient(H @ theta)
            # current loss supplied by the caller, as in the run loop
            state = maybe_update(state, step, lr, loss, theta, d, loss(theta))
        # events at 0, period, 2*period, ... below 25; two probe passes each
        probes = len(loss_calls) - 25
        assert probes == 2 * math.ceil(25 / period)

    def test_uninitialized_eta_probes_at_epsilon(self):
        seen = []

        def loss(p):
            seen.append(float(p[0]))
            return 0.5 * float(p[0]) ** 2

        theta = parameter_vector([1.0])
        maybe_update(LrState(None), 0, auto_lr(), loss, theta, gradient([1.0]), 0.5)
        np.testing.assert_allclose(sorted(seen), [1.0 - 1e-3, 1.0 + 1e-3])

    def test_step_size_falls_back_to_probe_epsilon(self):
        assert LrState._fields == ("eta", "fitted", "guard_trips")
        assert step_size(LrState(None), auto_lr(probe_epsilon=0.5)) == 0.5
        assert step_size(LrState(0.2), auto_lr(probe_epsilon=0.5)) == 0.2
