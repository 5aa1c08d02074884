"""A lockstep group of quad runs gives every run its lone run's outcome, bit for bit."""

from collections import Counter

import numpy as np
import pytest

import ngdiff.combiners
from ngdiff import NumericAbort, RunRecord, config_from_dict, record_to_json, run_unlearning
from ngdiff.engine import lockstep_key

SWEEP_METHODS = ("gd", "ga", "lossnorm", "rlw", "pcgrad", "imtlg", "ngdiff")


def quad(method, steps=60, lr=None, theta0=None, forget_kind=None):
    problem = {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]}
    if theta0 is not None:
        problem["theta0"] = list(theta0)
    if forget_kind is not None:
        problem["forget_kind"] = forget_kind
    return config_from_dict({
        "method": method,
        "lr": lr or {"mode": "fixed", "eta": 0.1},
        "steps": steps,
        "seeds": {"data": 0, "init": 0, "method": 0},
        "problem": problem,
    })


def outcome(result):
    """What a run's outcome shows: its record's text and final parameters, or its abort."""
    if isinstance(result, NumericAbort):
        return "abort", result.step, str(result), result.last_params.tobytes()
    assert isinstance(result, RunRecord), result
    return "record", record_to_json(result), result.final_params.tobytes()


def lone(cfg):
    try:
        return outcome(run_unlearning(cfg))
    except NumericAbort as exc:
        return outcome(exc)


def assert_group_matches_lone_runs(cfgs):
    assert len({lockstep_key(cfg) for cfg in cfgs}) == 1
    grouped = [outcome(result) for result in run_unlearning(cfgs)]
    assert grouped == [lone(cfg) for cfg in cfgs]
    return grouped


FORGET_KINDS = pytest.mark.parametrize("forget_kind", ["unbounded_quadratic", "bounded_exp"])


@FORGET_KINDS
def test_a_coefficient_group(forget_kind):
    cfgs = [quad({"kind": "gdiff", "c": c}, steps=200, forget_kind=forget_kind) for c in (0.6, 0.75, 0.9, 0.3, 1.0)]
    assert all(kind == "record" for kind, *_ in assert_group_matches_lone_runs(cfgs))


@FORGET_KINDS
@pytest.mark.parametrize("lr", [None, {"mode": "auto"}], ids=["fixed", "auto"])
def test_every_sweepable_combiner_in_one_group_from_the_forget_anchor(forget_kind, lr, monkeypatch):
    # theta0 = b zeroes the forget gradient at step 0: NGDiff and IMTL-G are degenerate there
    # the group function gives every gradient-dependent row's flags, one column each
    flags = Counter()
    rules = ngdiff.combiners.coefficients

    def spy(kind, specs, *args):
        coefficients, degenerate, clamped = rules(kind, specs, *args)
        assert len(coefficients) == len(degenerate) == len(clamped) == len(specs)
        flags[kind, "degenerate"] += sum(degenerate)
        flags[kind, "clamped"] += sum(clamped)
        return coefficients, degenerate, clamped

    monkeypatch.setattr(ngdiff.combiners, "coefficients", spy)
    cfgs = [quad({"kind": kind}, theta0=(1.0, 0.0), lr=lr, forget_kind=forget_kind) for kind in SWEEP_METHODS]
    grouped = run_unlearning(cfgs)
    assert flags["ngdiff", "degenerate"] >= 1 and flags["imtlg", "degenerate"] >= 1
    assert flags["pcgrad", "clamped"] >= 1
    assert np.isnan(grouped[SWEEP_METHODS.index("ngdiff")].rows[0].coeff_c)
    monkeypatch.setattr(ngdiff.combiners, "coefficients", rules)
    assert [outcome(result) for result in grouped] == [lone(cfg) for cfg in cfgs]


@FORGET_KINDS
def test_auto_and_fixed_step_sizes_in_one_group(forget_kind):
    cfgs = [
        quad({"kind": "ngdiff"}, lr=lr, theta0=(0.5, 1.0), forget_kind=forget_kind)
        for lr in ({"mode": "auto"}, {"mode": "fixed", "eta": 0.05}, {"mode": "auto", "update_period": 1},
                   {"mode": "auto", "eta": 0.3, "probe_epsilon": 0.01})
    ]
    grouped = assert_group_matches_lone_runs(cfgs)
    assert len({text for _, text, _ in grouped}) == len(cfgs)


def test_every_run_starts_from_its_own_theta0():
    cfgs = [
        quad(method, theta0=theta0)
        for method, theta0 in (({"kind": "gdiff", "c": 0.75}, None), ({"kind": "ngdiff"}, (0.5, 1.0)),
                               ({"kind": "pcgrad"}, (-3.0, 2.0)), ({"kind": "gd"}, (1e308, 0.0)))
    ]
    grouped = assert_group_matches_lone_runs(cfgs)
    assert [kind for kind, *_ in grouped] == ["record", "record", "record", "abort"]
    assert grouped[-1][1:3] == (0, "non-finite value at step 0: task loss is non-finite")


@FORGET_KINDS
def test_runs_that_overflow_at_different_steps_leave_the_group_and_the_others_finish(forget_kind):
    etas = (0.1, 1e3, 5.0, 1e5, 1e300, 0.5)
    cfgs = [
        quad({"kind": "gdiff", "c": 0.75}, steps=300, lr={"mode": "fixed", "eta": eta}, forget_kind=forget_kind)
        for eta in etas
    ]
    grouped = assert_group_matches_lone_runs(cfgs)
    aborts = {eta: out[1] for eta, out in zip(etas, grouped) if out[0] == "abort"}
    assert set(aborts) == {1e3, 1e5, 1e300}
    assert len(set(aborts.values())) == 3  # three different steps
    assert all(out[0] == "record" for eta, out in zip(etas, grouped) if eta not in aborts)


def test_a_failing_rule_ends_its_run_alone(monkeypatch):
    rule = ngdiff.combiners.coefficient

    def flaky(spec, *args):
        if spec.kind == "rlw" and args[-2] == 7:
            raise RuntimeError("rule failed")
        return rule(spec, *args)

    monkeypatch.setattr(ngdiff.combiners, "coefficient", flaky)
    cfgs = [quad({"kind": kind}, theta0=(0.5, 1.0)) for kind in ("gd", "rlw", "ngdiff")]
    grouped = run_unlearning(cfgs)
    assert isinstance(grouped[1], RuntimeError)
    monkeypatch.setattr(ngdiff.combiners, "coefficient", rule)
    assert [outcome(grouped[0]), outcome(grouped[2])] == [lone(cfgs[0]), lone(cfgs[2])]


def test_a_rule_that_fails_for_one_run_of_its_kind_ends_that_run_alone(monkeypatch):
    # the kind's rule raises for the group's rows, so they are taken again one at a time
    rule = ngdiff.combiners.coefficient

    def flaky(spec, *args):
        if args[-2:] == (7, 1):  # step 7 of method seed 1
            raise RuntimeError("rule failed")
        return rule(spec, *args)

    monkeypatch.setattr(ngdiff.combiners, "coefficient", flaky)
    base = quad({"kind": "rlw"}, theta0=(0.5, 1.0))
    cfgs = [base._replace(seeds=base.seeds._replace(method=seed)) for seed in (0, 1, 2)]
    grouped = run_unlearning(cfgs)
    assert isinstance(grouped[1], RuntimeError) and str(grouped[1]) == "rule failed"
    monkeypatch.setattr(ngdiff.combiners, "coefficient", rule)
    assert [outcome(grouped[0]), outcome(grouped[2])] == [lone(cfgs[0]), lone(cfgs[2])]


def test_quad_runs_of_other_pairs_or_step_counts_do_not_share_a_group():
    base = quad({"kind": "gd"})
    assert lockstep_key(quad({"kind": "ngdiff"}, theta0=(3.0, 1.0), lr={"mode": "auto"})) == lockstep_key(base)
    others = [quad({"kind": "gd"}, steps=61), quad({"kind": "gd"}, forget_kind="bounded_exp")]
    assert all(lockstep_key(cfg) != lockstep_key(base) for cfg in others)
    with pytest.raises(ValueError, match="one lockstep_key"):
        run_unlearning([base, *others])
