"""The unlearning loop, orchestration, Pareto tooling, and cost accounting."""

import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import ngdiff.engine
from ngdiff import (
    ConfigError,
    EvalResult,
    NumericAbort,
    ParetoPoint,
    RunRecord,
    StepRow,
    config_from_dict,
    combine,
    config_to_dict,
    dominated_by,
    evaluate,
    finetune,
    non_dominated_set,
    pass_overhead,
    record_from_json,
    record_to_json,
    run_unlearning,
)
from ngdiff.autodiff import Graph, NumericError, parameter_vector
from ngdiff.bench import (
    ForgetRetainSplit,
    LabeledBatch,
    gen_gaussian_clusters,
    mlp_factory,
    split_forget_retain,
)
from ngdiff.engine import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    NoUnlearn,
    _ClassificationTask,
    _QuadTask,
    _Run,
    no_unlearn,
    run_name,
    write_trace_csv,
)
from ngdiff.objectives import QuadPairProblem, lsp_minimizer

from _oracles import (
    brute_force_front,
    forward,
    record_to_dict,
    record_to_json_two_pass,
    tail_variation,
    write_trace_csv_two_pass,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def step_outs(task, runs, theta) -> tuple:
    """A task's step as each run's ``(loss_retain, loss_forget, norm_retain,
    norm_forget)`` or the error it met, and the gradient matrices."""
    loss_r, loss_f, norm_r, norm_f, failed, g_r, g_f = task.step(runs, theta)
    return [failed.get(i, out) for i, out in enumerate(zip(loss_r, loss_f, norm_r, norm_f))], g_r, g_f


def quad_config(method, steps, lr=None, theta0=None, forget_kind=None, **extra):
    problem = {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]}
    if theta0 is not None:
        problem["theta0"] = list(theta0)
    if forget_kind is not None:
        problem["forget_kind"] = forget_kind
    return config_from_dict(
        {
            "method": method,
            "lr": lr or {"mode": "fixed", "eta": 0.1},
            "steps": steps,
            "seeds": {"data": 0, "init": 0, "method": 0},
            "problem": problem,
            **extra,
        }
    )


def gaussian_config(method, steps=300, lr=None, seeds=(0, 1000, 2000), **extra):
    return config_from_dict(
        {
            "method": method,
            "lr": lr or {"mode": "auto"},
            "steps": steps,
            "batch_size": 32,
            "eval_every": extra.pop("eval_every", 50),
            "seeds": {"data": seeds[0], "init": seeds[1], "method": seeds[2]},
            "problem": {"kind": "gaussian"},
            **extra,
        }
    )


class TestQuadRuns:
    def test_gd_converges_to_retain_anchor(self):
        rec = run_unlearning(quad_config({"kind": "gd"}, steps=200))
        assert np.linalg.norm(rec.final_params - [0.0, 0.0]) <= 1e-6

    def test_static_gdiff_converges_to_closed_form(self):
        rec = run_unlearning(quad_config({"kind": "gdiff", "c": 0.75}, steps=500))
        assert np.linalg.norm(rec.final_params - [-0.5, 0.0]) <= 1e-4

    def test_scheduled_coefficient_converges_to_limit_point(self):
        cfg = quad_config(
            {"kind": "scheduled_gdiff", "c": 0.75, "amplitude": 0.2, "decay": 0.99},
            steps=1500,
        )
        rec = run_unlearning(cfg)
        assert np.linalg.norm(rec.final_params - [-0.5, 0.0]) <= 1e-3
        cs = [r.coeff_c for r in rec.rows]
        assert tail_variation(cs) < 1e-3

    def test_ngdiff_autolr_strict_two_sided_monotonicity(self):
        # off the anchor axis the two gradients are never parallel, so each
        # step must lower the retain loss and raise the forget loss
        cfg = quad_config(
            {"kind": "ngdiff"}, steps=500, lr={"mode": "auto"}, theta0=(0.5, 1.0)
        )
        rec = run_unlearning(cfg)
        losses_r = [r.loss_retain for r in rec.rows] + [rec.final.loss_retain]
        losses_f = [r.loss_forget for r in rec.rows] + [rec.final.loss_forget]
        assert max(np.diff(losses_r)) < 1e-12
        assert min(np.diff(losses_f)) > -1e-12
        # the step size stays inside the strict-descent window (H = identity);
        # checkable only while the unit-gradient difference is well above
        # float cancellation noise
        prob = QuadPairProblem(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        theta = np.array(rec.config["problem"]["theta0"])
        checked = 0
        for row in rec.rows:
            g_r = prob.retain_grad(theta)
            g_f = prob.forget_grad(theta)
            d = g_r / np.linalg.norm(g_r) - g_f / np.linalg.norm(g_f)
            if np.linalg.norm(d) < 1e-6:
                break
            bound = 2.0 * float(g_r @ d) / float(d @ d)
            assert 0.0 < row.lr < bound
            checked += 1
            theta = theta - row.lr * d
        assert checked >= 20

    def test_extended_gdiff_family_mutually_non_dominated(self):
        points = []
        for c in (0.6, 0.75, 0.9):
            rec = run_unlearning(quad_config({"kind": "gdiff", "c": c}, steps=600))
            target = lsp_minimizer(
                QuadPairProblem(np.array([0.0, 0.0]), np.array([1.0, 0.0])), c
            )
            assert np.linalg.norm(rec.final_params - target) <= 1e-4
            points.append(rec.pareto_point(tag=f"c={c}"))
        assert non_dominated_set(points) == points

    def test_converged_static_run_sits_at_stationary_point(self):
        # a converging coefficient trace pins the limit to the matching
        # stationary point of the static scalarization
        for c in (0.6, 0.9):
            rec = run_unlearning(quad_config({"kind": "gdiff", "c": c}, steps=800))
            assert tail_variation([r.coeff_c for r in rec.rows]) < 1e-3
            prob = QuadPairProblem(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
            assert np.linalg.norm(rec.final_params - lsp_minimizer(prob, c)) <= 1e-3

    @pytest.mark.parametrize("forget_kind", ["unbounded_quadratic", "bounded_exp"])
    def test_task_gradients_are_frozen_and_own_their_memory(self, forget_kind):
        cfg = quad_config({"kind": "gd"}, steps=1, theta0=(0.5, 1.0), forget_kind=forget_kind)
        task = _QuadTask(cfg)
        params = task.initial_params(cfg)
        assert not params.flags.writeable
        theta = params[None]
        ((_, _, norm_r, norm_f),), g_r, g_f = step_outs(task, [_Run(cfg, task)], theta)
        assert not g_r.flags.writeable and not g_f.flags.writeable
        for grad, norm in ((g_r[0], norm_r), (g_f[0], norm_f)):
            assert not grad.flags.writeable
            assert repr(norm) == repr(math.sqrt(grad.dot(grad)))
            for other in (params, task.problem.a, task.problem.b):
                assert not np.shares_memory(grad, other)

    def test_trace_norms_are_the_task_gradients_norms(self, monkeypatch):
        # the gnorm columns are the norms of the gradients the combiner rule was given
        seen = []
        real = ngdiff.combiners.coefficients

        def spy(kind, specs, g_r, g_f, *args):
            seen.extend((np.array(row_r), np.array(row_f)) for row_r, row_f in zip(g_r, g_f))
            return real(kind, specs, g_r, g_f, *args)

        monkeypatch.setattr(ngdiff.combiners, "coefficients", spy)
        for cfg in (
            quad_config({"kind": "ngdiff"}, steps=20, lr={"mode": "auto"}, theta0=(0.5, 1.0)),
            gaussian_config({"kind": "pcgrad"}, steps=5, problem={"kind": "gaussian", "per_class": 20}),
        ):
            seen.clear()
            rows = run_unlearning(cfg).rows
            assert len(seen) == len(rows)
            for row, (g_r, g_f) in zip(rows, seen):
                assert row.gnorm_retain == float(np.linalg.norm(g_r))
                assert row.gnorm_forget == float(np.linalg.norm(g_f))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_ga_divergence_aborts_with_step_index(self):
        cfg = quad_config(
            {"kind": "ga"}, steps=2000, lr={"mode": "fixed", "eta": 1.0}, theta0=(2.0, 1.0)
        )
        with pytest.raises(NumericAbort) as exc:
            run_unlearning(cfg)
        assert 0 < exc.value.step < 2000
        assert exc.value.last_params is not None
        assert np.all(np.isfinite(exc.value.last_params))


class TestCounters:
    @pytest.mark.parametrize("steps", [7, 20])
    @pytest.mark.parametrize(
        "method,lr,period",
        [
            ({"kind": "ngdiff"}, {"mode": "fixed", "eta": 0.05}, None),
            ({"kind": "ngdiff"}, {"mode": "auto"}, 10),
            ({"kind": "ngdiff"}, {"mode": "auto", "update_period": 1}, 1),
            ({"kind": "gdiff", "c": 0.5}, {"mode": "fixed", "eta": 0.05}, None),
        ],
    )
    def test_combiner_counters_match_closed_form(self, steps, method, lr, period):
        rec = run_unlearning(quad_config(method, steps=steps, lr=lr, theta0=(0.5, 1.0)))
        assert rec.forward_passes == 2 * steps
        assert rec.backward_passes == 2 * steps
        expected_probes = 0 if period is None else 2 * math.ceil(steps / period)
        assert rec.probe_forward_passes == expected_probes

    @pytest.mark.parametrize("lr,period", [({"mode": "fixed", "eta": 0.05}, None), ({"mode": "auto"}, 10)])
    def test_npo_counters(self, lr, period):
        rec = run_unlearning(
            gaussian_config({"kind": "npo", "beta": 1.0}, steps=20, lr=lr)
        )
        assert rec.forward_passes == 20
        assert rec.backward_passes == 20
        expected_probes = 0 if period is None else 2 * math.ceil(20 / period)
        assert rec.probe_forward_passes == expected_probes


class TestOneKernelPassPerStep:
    """A step runs the kernel once over its stacked minibatches, and twice when their sizes differ."""

    @staticmethod
    def spy_on_run(monkeypatch):
        calls = []
        run = Graph.run

        def spy(graph, params, bindings):
            calls.append((len(bindings["features"]), bindings["groups"]))
            return run(graph, params, bindings)

        monkeypatch.setattr(Graph, "run", spy)
        return calls

    @pytest.mark.parametrize(
        "method, batch_size, per_step",
        [({"kind": "ngdiff"}, 8, 1), ({"kind": "npo", "beta": 1.0}, 8, 1),
         ({"kind": "ngdiff"}, 25, 2), ({"kind": "npo", "beta": 1.0}, 25, 2)],
        ids=["ngdiff-stacked", "npo-stacked", "ngdiff-unequal", "npo-unequal"],
    )
    def test_calls_per_step(self, monkeypatch, method, batch_size, per_step):
        # 40 retain and 20 forget rows: a 25-row minibatch is cut to 20 on the forget side
        cfg = gaussian_config(
            method, steps=12, lr={"mode": "fixed", "eta": 0.1}, eval_every=5, batch_size=batch_size,
            problem={"kind": "gaussian", "per_class": 20, "finetune_steps": 7},
        )
        calls = self.spy_on_run(monkeypatch)
        rec = run_unlearning(cfg)
        evals = 2 * (math.ceil(12 / 5) + 1)  # both splits, every 5th step and at the end
        reference = 1 if method["kind"] == "npo" else 0
        assert len(calls) == 7 + reference + per_step * 12 + evals
        stacked = [rows for rows, groups in calls if groups == 2]
        assert stacked == ([2 * batch_size] * 12 if per_step == 1 else [])
        assert rec.forward_passes == rec.backward_passes == (1 if reference else 2) * 12

    def test_rows_through_the_kernel_for_the_shipped_config(self, monkeypatch):
        cfg = config_from_dict(json.loads((CONFIGS / "ngdiff_gaussian.json").read_text()))
        calls = self.spy_on_run(monkeypatch)
        run_unlearning(cfg)
        assert sum(rows for rows, _ in calls) == 409020
        assert calls.count((64, 2)) == 300  # one stacked pass of two 32-row minibatches per step


# One-row minibatches, each non-finite at a named place when it runs alone,
# for a [1, 1, 2] MLP: w1 = 2, b1 = 0, w2 = (1e308, -1e308), b2 = 0.  The
# logits are +-1e308 * tanh(2x); a row of class 0 takes -x for the same effect.
CHAIN_PARAMS = [2.0, 0.0, 1e308, -1e308, 0.0, 0.0]
CHAIN_ROWS = {
    "ok": 0.0,  # logits 0: every value finite
    "gradient": 1e-308,  # logits +-2, but dL/dh sums two terms near 1e308
    "cross-entropy": 4.0,  # lp = -1e308 - 1e308
    "layer 1": 1e308,  # 2 * 1e308
}
# a [1, 1, 1, 2] MLP whose second layer overflows once the first saturates
# at +1: w1 = 2, w2 = b2 = 1e308, w3 = (1, -1); the class does not matter
DEEP_PARAMS = [2.0, 0.0, 1e308, 1e308, 1.0, -1.0, 0.0, 0.0]
DEEP_ROWS = {"ok": 0.0, "layer 2": 4.0, "layer 1": 1e308}
MESSAGES = {
    "gradient": "gradient entries must be finite",
    "cross-entropy": "non-finite cross-entropy",
    "layer 1": "non-finite pre-activation in layer 1",
    "layer 2": "non-finite pre-activation in layer 2",
}


# parameters that keep every row of CHAIN_ROWS or DEEP_ROWS finite: w1 = 0.5
# saturates tanh without overflow, and the later weights are of order 1
SAFE_PARAMS = {False: [0.5, 0.0, 1.0, -1.0, 0.0, 0.0], True: [0.5, 0.0, 1.0, 0.0, 1.0, -1.0, 0.0, 0.0]}


def one_row_task(retain: str, forget: str, method: dict, deep: bool = False, start=None):
    """The task of a start whose splits are one row each, a run of it, its batches and its parameters.

    The start, which is also an NPO run's reference, is at the failing
    parameters unless ``start`` gives others.
    """
    widths, values, rows = ([1, 1, 1, 2], DEEP_PARAMS, DEEP_ROWS) if deep else ([1, 1, 2], CHAIN_PARAMS, CHAIN_ROWS)
    graph, params = mlp_factory(0, widths)
    params = parameter_vector(values)
    retain_batch = LabeledBatch([[rows[retain]]], [1], 2)
    forget_batch = LabeledBatch([[rows[forget] if deep else -rows[forget]]], [0], 2)
    split = ForgetRetainSplit(retain=retain_batch, forget=forget_batch, forget_class=0)
    cfg = gaussian_config(method, steps=1, batch_size=1, problem={"kind": "gaussian", "classes": 2, "dim": 2})
    origin = params if start is None else parameter_vector(start)
    task = _ClassificationTask([cfg], NoUnlearn(split, graph, origin))
    return task, _Run(cfg, task), split, params


PAIRS = [
    *((False, r, f) for r in CHAIN_ROWS for f in CHAIN_ROWS if (r, f) != ("ok", "ok")),
    *((True, r, f) for r in DEEP_ROWS for f in DEEP_ROWS if (r, f) != ("ok", "ok")),
]


def step_of(task, run, params):
    """The task's step result for ``run`` alone at ``params``: its out and its gradient rows."""
    (out,), g_r, g_f = step_outs(task, [run], parameter_vector(params)[None])
    return out, g_r[0], None if g_f is None else g_f[0]


class TestStackedStepErrors:
    """A step whose stacked pass meets a non-finite value gives what its lone passes raise first."""

    @pytest.mark.parametrize("deep, retain, forget", PAIRS)
    def test_retain_pass_then_forget_pass(self, deep, retain, forget):
        task, run, split, params = one_row_task(retain, forget, {"kind": "ngdiff"}, deep)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as lone:
                for batch in (split.retain, split.forget):
                    forward(task.graph, params, batch)
                    task.graph.backward()
            stacked, _, _ = step_of(task, run, params)
        assert isinstance(stacked, NumericError)
        assert str(stacked) == str(lone.value) == MESSAGES[retain if retain != "ok" else forget]

    @pytest.mark.parametrize(
        "retain, forget", [("layer 1", "gradient"), ("layer 1", "ok"), ("ok", "gradient"), ("cross-entropy", "ok")]
    )
    def test_npo_forget_pass_then_retain_pass(self, retain, forget):
        task, run, split, params = one_row_task(retain, forget, {"kind": "npo", "beta": 1.0})
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as lone:
                run.npo.loss_and_grad(params, split.forget, task._npo_ref)
                forward(task.graph, params, split.retain)
            stacked, _, _ = step_of(task, run, params)
        assert isinstance(stacked, NumericError)
        assert str(stacked) == str(lone.value) == MESSAGES[forget if forget != "ok" else retain]

    @pytest.mark.parametrize(
        "deep, retain, forget",
        [(False, "layer 1", "ok"), (False, "cross-entropy", "ok"), (False, "layer 1", "gradient"),
         (False, "ok", "layer 1"), (False, "ok", "cross-entropy"), (False, "ok", "gradient"),
         (True, "layer 2", "layer 1")],
    )
    @pytest.mark.parametrize("method", [{"kind": "ngdiff"}, {"kind": "npo", "beta": 1.0}], ids=["ngdiff", "npo"])
    def test_one_run_of_a_lockstep_pass_fails_and_the_other_steps_on(self, deep, retain, forget, method):
        good_params = SAFE_PARAMS[deep]
        # an NPO run's reference is the start, whose pass over a failing forget row would fail
        start = good_params if forget in ("layer 1", "cross-entropy") else None
        task, bad, split, params = one_row_task(retain, forget, method, deep, start)
        good = _Run(bad.cfg, task)
        # the lone order: retain first for a combiner, the NPO loss's forget side first for NPO
        first = (forget, retain) if method["kind"] == "npo" else (retain, forget)
        with np.errstate(all="ignore"):
            alone = step_of(task, good, good_params)
            lone_error, _, _ = step_of(task, bad, params)
            (failed, stepped), g_r, g_f = step_outs(task, [bad, good], parameter_vector([params, good_params]).reshape(2, -1))
        assert isinstance(failed, NumericError) and str(failed) == str(lone_error)
        assert str(lone_error) == MESSAGES[first[0] if first[0] != "ok" else first[1]]
        assert not isinstance(alone[0], Exception)
        assert repr(stepped) == repr(alone[0])
        assert g_r[1].tobytes() == alone[1].tobytes()
        if method["kind"] == "npo":
            assert g_f is None
        else:
            assert g_f[1].tobytes() == alone[2].tobytes()


def eta_group(doc, lr=None):
    """The configs of ``doc`` at eta 1e308, which aborts, and 0.01, which steps on; fixed eta unless ``lr``."""
    return [
        config_from_dict({**doc, "lr": {**(lr or {"mode": "fixed"}), "eta": eta}}) for eta in (1e308, 0.01)
    ]


def small_gaussian_doc(method, **top):
    """The shipped Gaussian config over 60 retain and 30 forget rows, 20 finetune and 20 loop steps."""
    doc = json.loads((CONFIGS / "ngdiff_gaussian.json").read_text())
    doc["problem"].update(per_class=30, finetune_steps=20)
    return {**doc, "method": method, "steps": 20, "eval_every": 5, **top}


SHIPPED_NPO = {**json.loads((CONFIGS / "ngdiff_gaussian.json").read_text()), "method": {"kind": "npo", "beta": 1.0}}


class TestLockstepAborts:
    """A run that aborts in a lockstep group meets its lone run's abort, and the other run its lone record."""

    @pytest.mark.parametrize(
        "cfgs, failure",
        [
            # a 40-row minibatch is cut to 30 rows on the forget side: two passes per step
            (eta_group(small_gaussian_doc({"kind": "ngdiff"}, batch_size=40)),
             "step 1: non-finite pre-activation in layer 2"),
            (eta_group(small_gaussian_doc({"kind": "npo", "beta": 1.0})), "step 1: non-finite cross-entropy"),
            # the step-10 evaluation fails, while the minibatches of steps 0-10 stay finite
            (eta_group({**SHIPPED_NPO, "steps": 12}, SHIPPED_NPO["lr"]), "step 10: non-finite cross-entropy"),
            # the final evaluation fails
            (eta_group(small_gaussian_doc({"kind": "ga"}, steps=1)), "step 1: non-finite cross-entropy"),
        ],
        ids=["unequal-minibatches", "npo-step", "npo-evaluation", "final-evaluation"],
    )
    def test_the_aborting_run_meets_its_lone_abort(self, cfgs, failure):
        start = no_unlearn(cfgs[0])
        aborted, finished = run_unlearning(cfgs, start)
        with pytest.raises(NumericAbort) as lone:
            run_unlearning(cfgs[0], start)
        assert isinstance(aborted, NumericAbort)
        assert str(aborted) == str(lone.value) == f"non-finite value at {failure}"
        assert aborted.step == lone.value.step
        assert aborted.last_params.tobytes() == lone.value.last_params.tobytes()
        alone = run_unlearning(cfgs[1], start)
        assert record_to_json(finished) == record_to_json(alone)
        assert finished.final_params.tobytes() == alone.final_params.tobytes()

    @pytest.mark.parametrize("batch_size, passes", [(20, 1), (40, 2)], ids=["stacked", "unequal-minibatches"])
    @pytest.mark.parametrize("method", [{"kind": "ngdiff"}, {"kind": "npo", "beta": 1.0}], ids=["ngdiff", "npo"])
    def test_an_abort_step_reruns_nothing(self, monkeypatch, method, batch_size, passes):
        cfg = config_from_dict(small_gaussian_doc(method, batch_size=batch_size))
        start = no_unlearn(cfg)
        task = _ClassificationTask([cfg, cfg], start)
        # the second run's parameters overflow the first layer
        theta = parameter_vector([start.params, np.full(start.params.size, 1e308)]).reshape(2, -1)
        calls = TestOneKernelPassPerStep.spy_on_run(monkeypatch)
        with np.errstate(all="ignore"):
            (stepped, failed), _, _ = step_outs(task, [_Run(cfg, task), _Run(cfg, task)], theta)
            evaluated, failed_evaluation = task.evaluate(theta)
        assert len(calls) == passes + 2  # the step's passes and one per side of the split
        assert isinstance(evaluated, EvalResult) and not isinstance(stepped, Exception)
        for error in (failed, failed_evaluation):
            assert isinstance(error, NumericError) and str(error) == "non-finite pre-activation in layer 1"


SHIPPED_QUAD = json.loads((CONFIGS / "gdiff_quad.json").read_text())


class TestTraceCells:
    """Every trace cell is a plain Python number: ``%r`` writes a numpy scalar as ``np.float64(...)``."""

    @pytest.mark.parametrize(
        "docs",
        [
            # fixed and automatic step sizes alternate
            [{**SHIPPED_QUAD, "method": {"kind": "gdiff", "c": 0.6 + 0.03 * i},
              "lr": {"mode": "auto"} if i % 2 else SHIPPED_QUAD["lr"]} for i in range(12)],
            [small_gaussian_doc({"kind": kind})
             for kind in ("gd", "ga", "lossnorm", "rlw", "pcgrad", "imtlg", "ngdiff")],
            [small_gaussian_doc({"kind": "npo", "beta": beta}) for beta in (0.5, 1.0, 2.0)],
        ],
        ids=["quad-c", "gaussian-methods", "npo-beta"],
    )
    def test_step_and_guard_are_ints_and_every_other_cell_a_float(self, docs):
        records = run_unlearning([config_from_dict(doc) for doc in docs])
        assert len(records) == len(docs)
        for record in records:
            assert isinstance(record, RunRecord)
            for row in record.rows:
                assert [type(cell) for cell in row] == [int] + [float] * 9 + [int]
                assert (row._fields[0], row._fields[-1]) == ("step", "guard")


class TestPassOverhead:
    def test_fixed_lr_is_exactly_one(self):
        rec = run_unlearning(
            quad_config({"kind": "ngdiff"}, steps=40, lr={"mode": "fixed", "eta": 0.05}, theta0=(0.5, 1.0))
        )
        assert pass_overhead(rec) == 1.0

    def test_lazy_cadence_is_exactly_32_over_30(self):
        rec = run_unlearning(
            quad_config({"kind": "ngdiff"}, steps=40, lr={"mode": "auto"}, theta0=(0.5, 1.0))
        )
        assert pass_overhead(rec) == 32 / 30

    def test_every_step_cadence_is_exactly_10_over_6(self):
        rec = run_unlearning(
            quad_config(
                {"kind": "ngdiff"},
                steps=40,
                lr={"mode": "auto", "update_period": 1},
                theta0=(0.5, 1.0),
            )
        )
        assert pass_overhead(rec) == 10 / 6


class TestFinetuneAndEvaluate:
    def test_no_unlearn_snapshot_fits_both_splits(self):
        data = gen_gaussian_clusters(0, 3, 300, 8, 4.0)
        split = split_forget_retain(data, 0)
        graph, params0 = mlp_factory(1000, [8, 16, 3])
        params = finetune(graph, params0, data, 400, 0.5)
        (ev,) = evaluate(graph, params[None], split)
        assert ev.acc_retain >= 0.99
        assert ev.acc_forget >= 0.99

    def test_zero_steps_leaves_parameters_unchanged(self):
        data = gen_gaussian_clusters(0, 3, 10, 4, 4.0)
        graph, params0 = mlp_factory(5, [4, 3])
        out = finetune(graph, params0, data, 0, 0.5)
        assert out.tobytes() == params0.tobytes()

    def test_finetune_deterministic(self):
        data = gen_gaussian_clusters(2, 3, 50, 4, 4.0)
        graph, params0 = mlp_factory(5, [4, 8, 3])
        a = finetune(graph, params0, data, 50, 0.5)
        b = finetune(graph, params0, data, 50, 0.5)
        assert a.tobytes() == b.tobytes()

    def test_untrained_models_sit_at_chance_level(self):
        # expected accuracy of a random-init classifier is 1/class_count by
        # class symmetry; average over inits to see the expectation
        data = gen_gaussian_clusters(3, 3, 300, 8, 4.0)
        split = split_forget_retain(data, 0)
        accs_r, accs_f = [], []
        for seed in range(100):
            graph, params = mlp_factory(seed, [8, 16, 3])
            (ev,) = evaluate(graph, params[None], split)
            accs_r.append(ev.acc_retain)
            accs_f.append(ev.acc_forget)
        assert abs(float(np.mean(accs_r)) - 1 / 3) <= 0.05
        assert abs(float(np.mean(accs_f)) - 1 / 3) <= 0.05


class TestClassificationRuns:
    @pytest.mark.parametrize("method", [{"kind": "ngdiff"}, {"kind": "npo", "beta": 1.0}])
    def test_pickled_start_runs_like_a_lone_run(self, method):
        cfg = gaussian_config(method, steps=20, eval_every=5)
        copy = pickle.loads(pickle.dumps(no_unlearn(cfg)))
        assert copy.graph._cache is None
        for batch in (copy.split.retain, copy.split.forget):
            assert not batch.features.flags.writeable
            assert not batch.labels.flags.writeable
        assert record_to_json(run_unlearning(cfg, copy)) == record_to_json(run_unlearning(cfg))

    def test_ngdiff_autolr_unlearns_and_retains(self):
        rec = run_unlearning(gaussian_config({"kind": "ngdiff"}))
        assert rec.final.acc_forget <= 0.05
        assert rec.final.acc_retain >= 0.90

    @pytest.mark.parametrize("seed", [0, 4, 6, 7, 13])
    def test_automatic_step_size_stays_bounded(self, seed):
        # without a cap on eta's growth these seeds reach eta > 10 (seed 13:
        # 5e7) as a clean fit is used far outside its probe width, and
        # retain accuracy falls as low as 0.38
        doc = json.loads((CONFIGS / "ngdiff_gaussian.json").read_text())
        doc["seeds"] = {"data": seed, "init": 1000 + seed, "method": 2000 + seed}
        rec = run_unlearning(config_from_dict(doc))
        assert max(row.lr for row in rec.rows) <= 10.0
        assert min(row.acc_retain for row in rec.rows) >= 0.98
        assert rec.final.acc_retain >= 0.98

    def test_npo_run_unlearns(self):
        rec = run_unlearning(gaussian_config({"kind": "npo", "beta": 1.0}))
        assert rec.final.acc_forget <= 0.05

    def test_eval_cadence_carries_forward(self):
        rec = run_unlearning(gaussian_config({"kind": "gd"}, steps=7, eval_every=3))
        accs = [r.acc_retain for r in rec.rows]
        assert accs[0] == accs[1] == accs[2]
        assert accs[3] == accs[4] == accs[5]

    def test_determinism_record_and_trace_bit_identical(self, tmp_path):
        cfg = gaussian_config({"kind": "ngdiff"}, steps=40)
        rec1 = run_unlearning(cfg)
        rec2 = run_unlearning(cfg)
        assert record_to_json(rec1) == record_to_json(rec2)
        assert rec1.params_digest == rec2.params_digest
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(rec1, p1)
        write_trace_csv(rec2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPareto:
    def test_dominance_examples(self):
        p = ParetoPoint(1.0, 4.0)
        q = ParetoPoint(1.0, 5.0)
        assert dominated_by(p, q)  # equal retain, q forgets more
        assert not dominated_by(ParetoPoint(1.0, 5.0), ParetoPoint(2.0, 4.0))
        assert not dominated_by(p, p)  # no strict inequality

    def test_non_dominated_examples(self):
        pts = [ParetoPoint(1.0, 5.0), ParetoPoint(2.0, 6.0), ParetoPoint(1.0, 4.0)]
        assert non_dominated_set(pts) == pts[:2]
        single = [ParetoPoint(3.0, 3.0)]
        assert non_dominated_set(single) == single
        equal = [ParetoPoint(1.0, 1.0), ParetoPoint(1.0, 1.0)]
        assert non_dominated_set(equal) == equal

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            pts = [
                ParetoPoint(float(a), float(b))
                for a, b in rng.integers(0, 6, size=(30, 2))
            ]
            assert non_dominated_set(pts) == brute_force_front(pts)


class TestConfig:
    def test_round_trip(self):
        cfg = gaussian_config({"kind": "gdiff", "c": 0.5})
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_unknown_key_rejected_with_field_path(self):
        doc = config_to_dict(gaussian_config({"kind": "ngdiff"}))
        doc["problem"]["mystery"] = 1
        with pytest.raises(ConfigError, match="problem.mystery"):
            config_from_dict(doc)

    def test_invalid_coefficient_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            gaussian_config({"kind": "gdiff", "c": 1.5})

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict({"method": {"kind": "gd"}, "lr": {"mode": "auto"}, "steps": 5})

    def test_npo_on_quad_rejected(self):
        with pytest.raises(ConfigError):
            quad_config({"kind": "npo", "beta": 1.0}, steps=5)

    def test_rlw_weights_are_drawn_from_the_method_seed(self):
        cfg = quad_config({"kind": "rlw"}, steps=5, seeds={"data": 1, "init": 2, "method": 7})
        for row in run_unlearning(cfg).rows:
            lam = np.random.default_rng([7, row.step]).standard_normal(2)
            assert row.coeff_c == 1.0 / (1.0 + math.exp(lam[1] - lam[0]))

    def test_run_name_is_deterministic(self):
        cfg = gaussian_config({"kind": "ngdiff"})
        assert run_name(cfg) == run_name(config_from_dict(config_to_dict(cfg)))
        assert run_name(cfg).startswith("ngdiff_0-1000-2000_")


class TestRecordSerialization:
    def test_round_trip_revalidates(self):
        rec = run_unlearning(quad_config({"kind": "gdiff", "c": 0.75}, steps=20))
        back = record_from_json(record_to_json(rec))
        assert back.params_digest == rec.params_digest
        assert back.steps == rec.steps
        assert back.forward_passes == rec.forward_passes
        assert record_to_json(back) == record_to_json(rec)
        # quad runs carry NaN accuracies through null JSON fields
        assert math.isnan(back.final.acc_retain)

    def test_corrupt_record_rejected(self):
        rec = run_unlearning(quad_config({"kind": "gd"}, steps=5))
        doc = json.loads(record_to_json(rec))
        doc["schema"] = 99
        with pytest.raises(ValueError):
            record_from_json(json.dumps(doc))
        doc = json.loads(record_to_json(rec))
        doc["forward_passes"] = -3
        with pytest.raises(ValueError):
            record_from_json(json.dumps(doc))


def _hand_built_record(rows) -> RunRecord:
    return RunRecord(
        config=config_to_dict(quad_config({"kind": "gd"}, steps=max(len(rows), 1))),
        rows=tuple(rows),
        forward_passes=2,
        backward_passes=2,
        probe_forward_passes=0,
        guard_trips=1,
        final=EvalResult(-0.0, math.inf, math.nan, 5e-324),
        params_digest="0" * 64,
    )


def _saturated_gaussian_record() -> RunRecord:
    # a finetune this long and steep leaves both gradients below the combiner's
    # norm floor: every ngdiff coefficient is nan, and the losses round to -0.0
    cfg = gaussian_config(
        {"kind": "ngdiff"}, steps=20, lr={"mode": "fixed", "eta": 0.1}, seeds=(0, 1, 2),
        eval_every=5,
        problem={"kind": "gaussian", "classes": 3, "per_class": 10, "dim": 4, "hidden": [4],
                 "finetune_steps": 100, "finetune_eta": 50.0, "separation": 100.0},
    )
    rec = run_unlearning(cfg)
    assert all(math.isnan(row.coeff_c) for row in rec.rows)
    return rec


RECORDS = {
    "quad": lambda: run_unlearning(
        config_from_dict(json.loads((CONFIGS / "gdiff_quad.json").read_text()))
    ),
    "gaussian_degenerate": _saturated_gaussian_record,
    "npo": lambda: run_unlearning(gaussian_config(
        {"kind": "npo", "beta": 1.0}, steps=20, eval_every=5,
        problem={"kind": "gaussian", "per_class": 30, "finetune_steps": 20},
    )),
    "hand_built": lambda: _hand_built_record([
        StepRow(0, math.nan, math.inf, -math.inf, -0.0, 1e-05, 5e-324, 0.0, 1.0, -1e300, 0),
        StepRow(1, -0.0, 1e-05, 5e-324, math.nan, math.inf, -math.inf, 0.1, 2.5, 1e16, 3),
    ]),
}
# no run writes a record without rows (a config has at least 1 step), so it
# does not re-parse; the writers still handle it
WRITER_RECORDS = {**RECORDS, "no_rows": lambda: _hand_built_record([])}


class TestOnePassWriters:
    """The writers format each trace row once; the bytes are those of the two-pass oracles."""

    @pytest.mark.parametrize("name", WRITER_RECORDS)
    def test_bytes_match_the_two_pass_writers(self, name, tmp_path):
        rec = WRITER_RECORDS[name]()
        assert record_to_json(rec) == record_to_json_two_pass(rec)
        write_trace_csv(rec, tmp_path / "one.csv")
        write_trace_csv_two_pass(rec, tmp_path / "two.csv")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_every_other_key_sorts_before_the_trace(self):
        keys = record_to_dict(RECORDS["hand_built"]()).keys() - {"trace", "trace_columns"}
        assert keys and max(keys) < "trace"

    @pytest.mark.parametrize("name", RECORDS)
    def test_every_record_re_parses_to_the_same_bytes(self, name):
        text = record_to_json(RECORDS[name]())
        assert record_to_json(record_from_json(text)) == text

    def test_a_record_without_rows_does_not_re_parse(self):
        with pytest.raises(ValueError, match="^record trace has 0 rows for 1 steps$"):
            record_from_json(record_to_json(WRITER_RECORDS["no_rows"]()))

    @pytest.mark.parametrize(
        "column,value",
        [("step", 1.5), ("step", -1), ("guard", 0.5), ("guard", -2), ("loss_retain", "0.5"),
         ("cos_rf", "nan")],
    )
    def test_a_cell_of_the_wrong_type_is_rejected(self, column, value):
        doc = json.loads(record_to_json(RECORDS["hand_built"]()))
        doc["trace"][1][TRACE_COLUMNS.index(column)] = value
        with pytest.raises(ValueError, match=f"record {column} must be"):
            record_from_json(json.dumps(doc))

    def test_readme_trace_header_is_the_engines(self):
        lines = (ROOT / "README.md").read_text().splitlines()
        assert [line for line in lines if line.startswith("step,")] == [TRACE_HEADER]
