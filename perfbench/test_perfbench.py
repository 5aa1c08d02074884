"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, workloads.HELD_OUT_SEED])
def test_same_seed_same_inputs(workload, seed):
    for index in range(4):
        first = workloads.plan_pass(workload, seed, index, "out")
        again = workloads.plan_pass(workload, seed, index, "out")
        assert first == again
        assert all(inv.argv[0] in ("run", "sweep") for inv in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert workloads.plan_pass(workload, 0, 0, "out") != workloads.plan_pass(workload, 1, 0, "out")


def test_gauss_run_starts_at_shipped_seeds_and_never_repeats_a_finetune():
    first = workloads.plan_pass("gauss_run", 0, 0, "out")[0]
    assert first.runs == ("0-1000-2000",)
    seen = [inv.runs[0] for p in range(20) for inv in workloads.plan_pass("gauss_run", 3, p, "out")]
    assert len(seen) == len(set(seen))


def test_quad_sweep_values_are_distinct_and_converge():
    (inv,) = workloads.plan_pass("quad_sweep", 5, 2, "out")
    values = [float(v) for v in inv.runs]
    assert len(values) == len(set(values)) == workloads.QUAD_VALUES_PER_PASS
    assert all(0.5 < v < 1 for v in values)
    assert inv.argv[inv.argv.index("--values") + 1] == ",".join(inv.runs)


def test_gauss_sweep_repeats_identical_inputs_every_pass():
    assert workloads.plan_pass("gauss_sweep", 4, 0, "out") == workloads.plan_pass("gauss_sweep", 4, 7, "out")
    method, beta = workloads.plan_pass("gauss_sweep", 4, 0, "out")
    assert method.runs == workloads.SWEEP_METHODS
    assert "gdiff" not in method.runs and "scheduled_gdiff" not in method.runs
    assert len(set(beta.runs)) == workloads.NPO_BETAS_PER_PASS


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.plan_pass("nope", 0, 0, "out")


@pytest.mark.parametrize(
    "method, lr, overhead",
    [
        ("ngdiff", {"mode": "auto", "update_period": 10}, Fraction(32, 30)),
        ("npo", {"mode": "auto", "update_period": 10}, Fraction(17, 30)),
        ("gdiff", {"mode": "fixed", "update_period": 10}, Fraction(1)),
    ],
)
def test_cost_model(method, lr, overhead):
    fwd, bwd, probe = checks.expected_counters({"steps": 300, "method": {"kind": method}, "lr": lr})
    assert Fraction(fwd + 2 * bwd + 2 * probe, 6 * 300) == overhead


def test_self_time_subtracts_children():
    parts = [{
        "spans": [["engine.loop", 0.0, 10.0, None, None], ["autodiff.forward", 1.0, 4.0, 0, None],
                  ["autodiff.forward", 5.0, 6.0, 0, None], ["engine.finetune", 6.0, 7.0, 0, {"key": "a"}]],
        "counts": {"autodiff.forward_rows": 64}, "maxima": {},
    }, {
        "spans": [["engine.finetune", 0.0, 2.0, None, {"key": "a"}]], "counts": {}, "maxima": {},
    }]
    layers = tracing.aggregate(parts)
    assert layers.self_time["engine.loop"] == pytest.approx(5.0)
    assert layers.calls["autodiff.forward"] == 2
    assert layers.total["engine.finetune"] == pytest.approx(3.0)
    metric = tracing.PER_LAYER["engine.finetune_repeat_ratio"][2]
    assert metric(layers) == 0.5


def test_missing_entry_point_is_absent_not_a_crash(monkeypatch, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    gone = tracing.Target("autodiff.forward", "ngdiff.autodiff", "Graph.no_such_method")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    tracer.start(tmp_path)
    parts = tracer.stop()
    values, absent = tracing.layer_metrics(tracer, [tracing.aggregate(parts)])
    assert "autodiff.forward_calls" in absent and "autodiff.forward_calls" not in values
    assert "autodiff.backward_calls" in values
