"""Gradient combination rules: worked examples and algebraic invariants."""

import math

import numpy as np
import pytest

from ngdiff import combine
from ngdiff.combiners import (
    GA, GD, GDIFF, IMTLG, LOSSNORM, NGDIFF, PCGRAD, RLW, SCHEDULED_GDIFF, coefficient, coefficients,
)

from _oracles import coefficient_trace, gradient as fg, method_spec, tail_variation

def run(kind, g_r, g_f, losses=None, step=0, **kw):
    return combine(method_spec(kind, **kw), fg(g_r), fg(g_f), losses, step=step)


class TestWorkedExamples:
    def test_ngdiff_orthogonal(self):
        out = run(NGDIFF, [2.0, 0.0], [0.0, 3.0])
        d = out.direction
        np.testing.assert_array_equal(d, [1.0, -1.0])
        assert d.dot([2.0, 0.0]) == 2.0
        assert d.dot([0.0, 3.0]) == -3.0
        assert out.coefficient == pytest.approx((1 / 2) / (1 / 2 + 1 / 3))

    def test_ngdiff_parallel_gradients_give_zero(self):
        out = run(NGDIFF, [3.0, 4.0], [6.0, 8.0])
        np.testing.assert_array_equal(out.direction, [0.0, 0.0])

    def test_gdiff_static_half(self):
        out = run(GDIFF, [1.0, 0.0], [0.0, 1.0], c=0.5)
        np.testing.assert_array_equal(out.direction, [0.5, -0.5])

    def test_pcgrad_aligned(self):
        out = run(PCGRAD, [1.0, 0.0], [1.0, 0.0])
        assert out.coefficient == pytest.approx(2.0 / 3.0)
        np.testing.assert_allclose(out.direction, [1.0 / 3.0, 0.0], atol=1e-15)

    def test_imtlg_orthogonal(self):
        out = run(IMTLG, [0.0, 1.0], [1.0, 0.0])
        assert out.coefficient == pytest.approx(0.5)
        np.testing.assert_allclose(out.direction, [-0.5, 0.5], atol=1e-15)

    def test_lossnorm_coefficient(self):
        out = run(LOSSNORM, [1.0, 0.0], [0.0, 1.0], (2.0, 4.0))
        assert out.coefficient == pytest.approx(2.0 / 3.0)

    def test_gd_and_ga(self):
        assert run(GD, [1.0, 2.0], [5.0, 5.0]).coefficient == 1.0
        np.testing.assert_array_equal(run(GD, [1.0, 2.0], [5.0, 5.0]).direction, [1.0, 2.0])
        out = run(GA, [1.0, 2.0], [5.0, 5.0])
        assert out.coefficient == 0.0
        np.testing.assert_array_equal(out.direction, [-5.0, -5.0])

    def test_rlw_equal_draws_symmetry(self):
        # the softmax of two equal draws is 0.5; check via the formula directly
        lam = np.zeros(2)
        c = 1.0 / (1.0 + math.exp(lam[1] - lam[0]))
        assert c == 0.5


class TestImtlgDefiningProperty:
    def imtlg_equal_projection_root(self, g_r, g_f):
        # scan for c equalizing projections of c*g_r + (1-c)*g_f onto the
        # two unit task gradients; independent of the closed-form coefficient
        u = g_f / np.linalg.norm(g_f) - g_r / np.linalg.norm(g_r)
        grid = np.linspace(-2.0, 3.0, 2_000_001)
        vals = np.abs((np.outer(grid, g_r) + np.outer(1 - grid, g_f)) @ u)
        return grid[int(np.argmin(vals))]

    def test_equal_projection_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g_r = rng.standard_normal(2)
            g_f = rng.standard_normal(2)
            out = combine(method_spec(IMTLG), fg(g_r), fg(g_f))
            if out.clamped or out.degenerate:
                continue
            c = out.coefficient
            u = g_f / np.linalg.norm(g_f) - g_r / np.linalg.norm(g_r)
            mix = c * g_r + (1 - c) * g_f
            assert abs(mix @ u) <= 1e-10 * (np.linalg.norm(g_r) + np.linalg.norm(g_f))

    def test_against_grid_scan(self):
        g_r = np.array([0.7, -1.2])
        g_f = np.array([1.5, 0.4])
        out = combine(method_spec(IMTLG), fg(g_r), fg(g_f))
        assert not out.clamped
        assert out.coefficient == pytest.approx(self.imtlg_equal_projection_root(g_r, g_f), abs=5e-6)


class TestInvariants:
    def test_sign_correctness_random_pairs(self):
        # positively correlated with the retain gradient, negatively with the
        # forget gradient, for arbitrary inputs (small sample; the acceptance
        # suite runs the full 10k sweep)
        rng = np.random.default_rng(0)
        for dim in (2, 10, 1000):
            for _ in range(200):
                g_r = rng.standard_normal(dim)
                g_f = rng.standard_normal(dim)
                d = combine(method_spec(NGDIFF), fg(g_r), fg(g_f)).direction
                assert g_r.dot(d) >= -1e-9 * np.linalg.norm(g_r)
                assert g_f.dot(d) <= 1e-9 * np.linalg.norm(g_f)

    @pytest.mark.parametrize(
        "kind, kw",
        [
            (GD, {}), (GA, {}), (GDIFF, {"c": 0.6}), (LOSSNORM, {}), (RLW, {}),
            (PCGRAD, {}), (IMTLG, {}), (NGDIFF, {}),
            (SCHEDULED_GDIFF, {"c": 0.6, "amplitude": 0.2, "decay": 0.5}),
        ],
    )
    def test_direction_is_frozen_and_owns_its_memory(self, kind, kw):
        g_r, g_f = fg([0.3, -1.2]), fg([0.7, 0.4])
        out = combine(method_spec(kind, **kw), g_r, g_f, (0.5, 2.0), step=1, seed=3)
        assert not out.direction.flags.writeable
        assert not np.shares_memory(out.direction, g_r)
        assert not np.shares_memory(out.direction, g_f)

    def test_ngdiff_scale_invariance(self):
        rng = np.random.default_rng(1)
        g_r = rng.standard_normal(6)
        g_f = rng.standard_normal(6)
        base = combine(method_spec(NGDIFF), fg(g_r), fg(g_f))
        # bit-exact under power-of-two scalings
        out = combine(method_spec(NGDIFF), fg(4.0 * g_r), fg(0.25 * g_f))
        assert out.direction.tobytes() == base.direction.tobytes()
        # within float rounding for arbitrary positive scalings
        for alpha, beta_ in ((3.7, 0.013), (1e6, 1e-6), (math.pi, math.e)):
            out = combine(method_spec(NGDIFF), fg(alpha * g_r), fg(beta_ * g_f))
            np.testing.assert_allclose(out.direction, base.direction, rtol=1e-12)

    def test_coefficient_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        specs = [
            method_spec(GD),
            method_spec(GA),
            method_spec(GDIFF, c=0.3),
            method_spec(LOSSNORM),
            method_spec(RLW),
            method_spec(PCGRAD),
            method_spec(IMTLG),
            method_spec(NGDIFF),
            method_spec(SCHEDULED_GDIFF, c=0.75, amplitude=0.2, decay=0.99),
        ]
        for step in range(300):
            g_r = fg(rng.standard_normal(2) * rng.uniform(0.1, 10))
            g_f = fg(rng.standard_normal(2) * rng.uniform(0.1, 10))
            losses = (rng.uniform(0.01, 5), rng.uniform(0.01, 5))
            for spec in specs:
                out = combine(spec, g_r, g_f, losses, step=step, seed=5)
                if not math.isnan(out.coefficient):
                    assert 0.0 <= out.coefficient <= 1.0

    def test_direction_equals_coefficient_form(self):
        rng = np.random.default_rng(3)
        specs = [
            method_spec(GD),
            method_spec(GA),
            method_spec(GDIFF, c=0.8),
            method_spec(LOSSNORM),
            method_spec(RLW),
            method_spec(PCGRAD),
            method_spec(IMTLG),
        ]
        for step in range(100):
            g_r = fg(rng.standard_normal(2))
            g_f = fg(rng.standard_normal(2))
            losses = (rng.uniform(0.1, 5), rng.uniform(0.1, 5))
            for spec in specs:
                out = combine(spec, g_r, g_f, losses, step=step, seed=9)
                c = out.coefficient
                np.testing.assert_allclose(
                    out.direction, c * g_r - (1 - c) * g_f, atol=1e-12
                )

    def test_ngdiff_is_positive_multiple_of_coefficient_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g_r = fg(rng.standard_normal(2))
            g_f = fg(rng.standard_normal(2))
            out = combine(method_spec(NGDIFF), g_r, g_f)
            c = out.coefficient
            factor = 1.0 / np.linalg.norm(g_r) + 1.0 / np.linalg.norm(g_f)
            np.testing.assert_allclose(
                out.direction,
                factor * (c * g_r - (1 - c) * g_f),
                atol=1e-12,
            )

    def test_rlw_mean_near_half(self):
        spec = method_spec(RLW)
        g_r, g_f = fg([1.0, 0.0]), fg([0.0, 1.0])
        cs = [combine(spec, g_r, g_f, step=t, seed=7).coefficient for t in range(10_000)]
        assert abs(float(np.mean(cs)) - 0.5) <= 0.02

    def test_rlw_reproducible_and_counter_keyed(self):
        spec = method_spec(RLW)
        g_r, g_f = fg([1.0, 0.0]), fg([0.0, 1.0])
        a = combine(spec, g_r, g_f, step=4, seed=21).coefficient
        b = combine(spec, g_r, g_f, step=4, seed=21).coefficient
        c = combine(spec, g_r, g_f, step=5, seed=21).coefficient
        assert a == b
        assert a != c


class TestDegenerateHandling:
    def test_ngdiff_zero_retain_gradient(self):
        out = run(NGDIFF, [0.0, 0.0], [0.0, 2.0])
        assert out.degenerate
        np.testing.assert_array_equal(out.direction, [0.0, -1.0])
        assert math.isnan(out.coefficient)

    def test_pcgrad_zero_retain_gradient(self):
        out = run(PCGRAD, [0.0, 0.0], [1.0, 0.0])
        assert out.degenerate
        assert out.coefficient == 0.5

    def test_imtlg_parallel_gradients(self):
        out = run(IMTLG, [1.0, 0.0], [2.0, 0.0])
        assert out.degenerate
        assert out.coefficient == 0.5

    def test_pcgrad_clamps_strong_conflict(self):
        out = run(PCGRAD, [1.0, 0.0], [-5.0, 0.0])  # ratio = -4 -> clamp
        assert out.clamped
        assert 0.0 <= out.coefficient <= 1.0

    @pytest.mark.parametrize("losses", [(0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_lossnorm_rejects_nonpositive_or_nonfinite_loss(self, losses):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            run(LOSSNORM, [1.0, 0.0], [0.0, 1.0], losses)

    def test_lossnorm_requires_losses(self):
        with pytest.raises(ValueError):
            run(LOSSNORM, [1.0, 0.0], [0.0, 1.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown combiner kind 'mystery'"):
            run("mystery", [1.0, 0.0], [0.0, 1.0])


class TestGroupCoefficients:
    """``coefficients`` gives each row of a group ``coefficient``'s value and flags, bit for bit."""

    @staticmethod
    def rows(zero_row):
        rng = np.random.default_rng(11)
        g_r, g_f = rng.standard_normal((2, 6, 5))
        if zero_row:
            g_f[2] = 0.0  # degenerate for NGDiff and IMTL-G
        g_r[4] = -g_f[4]  # opposed: PCGrad clamps
        norms = [[math.sqrt(row.dot(row)) for row in g] for g in (g_r, g_f)]
        return g_r, g_f, *norms

    @pytest.mark.parametrize("zero_row", [False, True], ids=["columns", "a-degenerate-row"])
    @pytest.mark.parametrize(
        "kind, kw",
        [(NGDIFF, {}), (PCGRAD, {}), (IMTLG, {}), (LOSSNORM, {}), (RLW, {}),
         # decay 0.5: clamped at step 0 for the larger c, inside [0, 1] from step 3
         (SCHEDULED_GDIFF, {"amplitude": 0.5, "decay": 0.5})],
    )
    def test_each_row_is_its_lone_rule(self, kind, kw, zero_row):
        g_r, g_f, norms_r, norms_f = self.rows(zero_row)
        specs = [method_spec(kind, **kw, **({"c": 0.4 + 0.1 * i} if kw else {})) for i in range(6)]
        losses = [(0.5 + i, 2.0 - 0.1 * i) if kind == LOSSNORM else None for i in range(6)]
        seeds = [3 * i for i in range(6)]
        for step in (0, 3, 40):
            group = coefficients(kind, specs, g_r, g_f, norms_r, norms_f, losses, step, seeds)
            lone = [coefficient(*row, step, seed) for *row, seed in
                    zip(specs, g_r, g_f, norms_r, norms_f, losses, seeds)]
            assert [tuple(map(repr, row)) for row in zip(*group)] == [tuple(map(repr, row)) for row in lone]
            assert all(type(c) is float for c in group[0])


class TestCoefficientTrace:
    def test_constant_run_has_zero_tail_variation(self):
        assert tail_variation([0.4] * 100) == 0.0

    def test_gd_run_is_all_ones(self):
        outs = [run(GD, [1.0, 1.0], [2.0, 0.0]) for _ in range(5)]
        assert coefficient_trace(outs) == [1.0] * 5

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            coefficient_trace([])

    def test_tail_variation_window(self):
        trace = [0.0, 1.0] + [0.5] * 60
        assert tail_variation(trace, window=50) == 0.0
        assert tail_variation(trace, window=len(trace)) == 1.0
