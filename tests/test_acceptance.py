"""End-to-end acceptance checks.

One test per criterion; each prints a ``[PASS]/[FAIL]`` line (visible with
``pytest -s`` or on failure) and enforces its runtime budget.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ngdiff import (
    LrState,
    combine,
    config_from_dict,
    fit_quadratic,
    maybe_update,
    non_dominated_set,
    optimal_lr,
    parameter_vector,
    pass_overhead,
    probe_losses,
    run_unlearning,
)
from ngdiff.engine import LrConfig
from ngdiff.objectives import QuadPairProblem, lsp_minimizer

from _oracles import fd_gradient, forward, gradient, lsp_gradient, method_spec, random_mlp_case


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def quad_config(method, steps, lr, theta0=None, forget_kind=None, eval_every=1):
    problem = {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]}
    if theta0 is not None:
        problem["theta0"] = list(theta0)
    if forget_kind is not None:
        problem["forget_kind"] = forget_kind
    return config_from_dict(
        {
            "method": method,
            "lr": lr,
            "steps": steps,
            "seeds": {"data": 0, "init": 0, "method": 0},
            "problem": problem,
            "eval_every": eval_every,
        }
    )


def gaussian_config(method, seed_base, steps=300):
    return config_from_dict(
        {
            "method": method,
            "lr": {"mode": "auto"},
            "steps": steps,
            "batch_size": 32,
            "eval_every": 50,
            "seeds": {
                "data": seed_base,
                "init": 1000 + seed_base,
                "method": 2000 + seed_base,
            },
            "problem": {"kind": "gaussian"},
        }
    )


def test_criterion_1_gradient_fidelity():
    with criterion(1, "backward matches central finite differences on 100 random MLPs", 30):
        for seed in range(100):
            graph, params, batch = random_mlp_case(seed)
            forward(graph, params, batch)
            grad = graph.backward()[0]
            fd = fd_gradient(graph, params, batch)
            err = np.abs(grad - fd)
            assert np.all(err <= np.maximum(1e-8, 1e-5 * np.abs(fd)))


def test_criterion_2_sign_correct_direction():
    with criterion(2, "normalized difference is sign-correct on 10,000 random pairs", 10):
        rng = np.random.default_rng(2024)
        spec = method_spec("ngdiff")
        for dim, count in ((2, 5000), (10, 4000), (10_000, 1000)):
            for _ in range(count):
                g_r = rng.standard_normal(dim)
                g_f = rng.standard_normal(dim)
                d = combine(spec, gradient(g_r), gradient(g_f)).direction
                assert g_r.dot(d) >= -1e-9 * np.linalg.norm(g_r)
                assert g_f.dot(d) <= 1e-9 * np.linalg.norm(g_f)


def test_criterion_3_probe_fit_exactness():
    with criterion(3, "probe-fitted step equals the analytic Rayleigh quotient", 5):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 100:
            dim = int(rng.integers(2, 8))
            A = rng.standard_normal((dim, dim))
            H = A @ A.T / dim + np.eye(dim)  # O(1) spectrum
            center = rng.standard_normal(dim)

            def loss(p):
                d = p - center
                return 0.5 * float(d @ H @ d)

            theta = parameter_vector(rng.standard_normal(dim))
            g = H @ (theta - center)
            d_vec = g + 0.1 * rng.standard_normal(dim)
            expected = float(g @ d_vec) / float(d_vec @ H @ d_vec)
            if expected <= 0:
                continue
            direction = gradient(d_vec)
            probe = float(rng.uniform(1e-3, 1.0))
            lm, l0, lp, used = probe_losses(loss, theta, direction, probe, loss(theta))
            eta = optimal_lr(fit_quadratic(used, lm, l0, lp))
            assert abs(eta - expected) <= 1e-8 * abs(expected)

            # one cadence update lands on the exact line minimum (probe at an
            # O(1) step size; a tiny probe wastes digits to cancellation)
            state = maybe_update(
                LrState(eta=float(rng.uniform(0.25, 1.0))), 0, LrConfig("auto", None, 10, 1e-3),
                loss, theta, direction, loss(theta),
            )
            stepped = theta - state.eta * d_vec
            residual = abs(float((H @ (stepped - center)) @ d_vec)) / np.linalg.norm(d_vec)
            assert residual <= 1e-10
            checked += 1


def test_criterion_4_per_step_two_sided_monotonicity():
    with criterion(4, "every normalized-difference step lowers retain and raises forget loss", 5):
        cfg = quad_config({"kind": "ngdiff"}, steps=500, lr={"mode": "auto"}, theta0=(0.5, 1.0))
        record = run_unlearning(cfg)
        assert record.steps >= 500
        losses_r = [r.loss_retain for r in record.rows] + [record.final.loss_retain]
        losses_f = [r.loss_forget for r in record.rows] + [record.final.loss_forget]
        retain_viol = sum(1 for d in np.diff(losses_r) if not d < 1e-12)
        forget_viol = sum(1 for d in np.diff(losses_f) if not d > -1e-12)
        assert retain_viol == 0
        assert forget_viol == 0


def test_criterion_5_static_family_hits_closed_forms():
    with criterion(5, "extended-difference runs land on closed-form minimizers, mutually non-dominated", 10):
        prob = QuadPairProblem(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        expected = {0.6: (-2.0, 0.0), 0.75: (-0.5, 0.0), 0.9: (-0.125, 0.0)}
        points = []
        for c, target in expected.items():
            closed = lsp_minimizer(prob, c)
            np.testing.assert_allclose(closed, target, atol=1e-12)
            # independent oracle: the scalarized gradient vanishes there
            assert np.linalg.norm(lsp_gradient(prob, closed, c)) <= 1e-12
            cfg = quad_config({"kind": "gdiff", "c": c}, steps=900, lr={"mode": "fixed", "eta": 0.1})
            record = run_unlearning(cfg)
            assert np.linalg.norm(record.final_params - closed) <= 1e-4
            points.append(record.pareto_point(tag=f"c={c}"))
        assert non_dominated_set(points) == points


def test_criterion_6_converging_coefficients_reach_limit_points():
    with criterion(6, "converging coefficient schedules land on the limit scalarization point", 30):
        cfg = quad_config(
            {"kind": "scheduled_gdiff", "c": 0.75, "amplitude": 0.2, "decay": 0.99},
            steps=1500,
            lr={"mode": "fixed", "eta": 0.1},
        )
        record = run_unlearning(cfg)
        assert np.linalg.norm(record.final_params - [-0.5, 0.0]) <= 1e-3

        bounded = quad_config(
            {"kind": "ngdiff"},
            steps=800,
            lr={"mode": "auto"},
            theta0=(0.5, 0.8),
            forget_kind="bounded_exp",
        )
        rec = run_unlearning(bounded)
        coeffs = [r.coeff_c for r in rec.rows]
        tail = coeffs[-51:]
        assert max(abs(b - a) for a, b in zip(tail, tail[1:])) < 1e-3

        # no point of a 401x401 grid around the final iterate dominates it
        prob = QuadPairProblem(np.array([0.0, 0.0]), np.array([1.0, 0.0]), "bounded_exp")
        theta = rec.final_params
        offsets = np.linspace(-0.1, 0.1, 401)
        gx, gy = np.meshgrid(theta[0] + offsets, theta[1] + offsets)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        grid_retain = 0.5 * np.sum((pts - prob.a) ** 2, axis=1)
        grid_forget = -np.expm1(-0.5 * np.sum((pts - prob.b) ** 2, axis=1))
        here_retain = prob.retain_loss(theta)
        here_forget = prob.forget_loss(theta)
        dominating = (
            (grid_retain <= here_retain)
            & (grid_forget >= here_forget)
            & ((grid_retain < here_retain) | (grid_forget > here_forget))
        )
        assert int(dominating.sum()) == 0


def test_criterion_7_desk_scale_unlearning_trend():
    with criterion(7, "all balanced methods forget; normalized difference retains best", 180):
        methods = {
            "ngdiff": {"kind": "ngdiff"},
            "gdiff-0.5": {"kind": "gdiff", "c": 0.5},
            "lossnorm": {"kind": "lossnorm"},
        }
        retain_by_method = {name: [] for name in methods}
        for seed in range(3):
            for name, method in methods.items():
                record = run_unlearning(gaussian_config(method, seed))
                assert record.final.acc_forget <= 0.05, f"{name} seed {seed} failed to forget"
                retain_by_method[name].append(record.final.acc_retain)
        for accs in retain_by_method["ngdiff"]:
            assert accs >= 0.90
        ngdiff_mean = float(np.mean(retain_by_method["ngdiff"]))
        for name in ("gdiff-0.5", "lossnorm"):
            other_mean = float(np.mean(retain_by_method[name]))
            assert ngdiff_mean >= other_mean - 0.01, (
                f"retain accuracy ordering violated: ngdiff {ngdiff_mean:.3f} vs {name} {other_mean:.3f}"
            )


def test_criterion_8_probe_overhead_accounting():
    with criterion(8, "probe cost accounting is exact: 1, 32/30, and 10/6", 30):
        fixed = quad_config(
            {"kind": "ngdiff"}, steps=40, lr={"mode": "fixed", "eta": 0.05}, theta0=(0.5, 1.0)
        )
        assert pass_overhead(run_unlearning(fixed)) == 1.0
        lazy = quad_config({"kind": "ngdiff"}, steps=40, lr={"mode": "auto"}, theta0=(0.5, 1.0))
        assert pass_overhead(run_unlearning(lazy)) == 32 / 30
        eager = quad_config(
            {"kind": "ngdiff"}, steps=40, lr={"mode": "auto", "update_period": 1}, theta0=(0.5, 1.0)
        )
        assert pass_overhead(run_unlearning(eager)) == 10 / 6


def test_criterion_9_coefficient_sweep_traces_the_tradeoff():
    with criterion(9, "coefficient sweep is monotone in both accuracies", 300):
        finals = []
        for c in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            cfg = config_from_dict(
                {
                    "method": {"kind": "gdiff", "c": c},
                    "lr": {"mode": "fixed", "eta": 0.05},
                    "steps": 300,
                    "batch_size": 32,
                    "eval_every": 100,
                    "seeds": {"data": 0, "init": 1000, "method": 2000},
                    "problem": {"kind": "gaussian"},
                }
            )
            record = run_unlearning(cfg)
            finals.append((record.final.acc_retain, record.final.acc_forget))

        def monotone_up_to_one_small_inversion(values, slack=0.02):
            inversions = [max(a - b, 0.0) for a, b in zip(values, values[1:])]
            bad = [v for v in inversions if v > 0]
            return len(bad) <= 1 and all(v <= slack for v in bad)

        retains = [r for r, _ in finals]
        forgets = [f for _, f in finals]
        assert monotone_up_to_one_small_inversion(retains), f"retain accuracies not monotone: {retains}"
        assert monotone_up_to_one_small_inversion(forgets), f"forget accuracies not monotone: {forgets}"
