"""The quad loop's per-step Python stays within the budget of its last tuned state."""

import json
import sys

import pytest

import opcount

# ops and calls per step of configs/gdiff_quad.json once a step's per-run
# values became columns and its trace row one flat tuple (375 and 8), with a
# margin of two; CPython 3.11 is the version CI runs
OPS_BUDGET = 377
CALLS_BUDGET = 10
# ops and calls per run and step of the 12-value c group of quad_sweep pass 0
# once a step's per-run values became columns (31.8 and 0.7), plus one op
# and under one call
GROUP_OPS_BUDGET = 33
GROUP_CALLS_BUDGET = 1.0
# ops and calls per step of the lone loop of configs/ngdiff_gaussian.json,
# finetune cancelled out, once NGDiff's coefficient is coefficient's own
# (2031.6 and 41.6), plus two
GAUSS_OPS_BUDGET = 2033
GAUSS_CALLS_BUDGET = 43


def test_steps_cancel_the_setup():
    doc = json.loads(opcount.DEFAULT_CONFIG.read_text())
    assert opcount.per_step(doc, 10) == opcount.per_step(doc, 20)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode counts are those of CPython 3.11")
def test_quad_step_stays_within_its_budget(capsys):
    assert opcount.main() == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["ops_per_step"]) <= OPS_BUDGET
    assert float(out["calls_per_step"]) <= CALLS_BUDGET


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode counts are those of CPython 3.11")
def test_quad_group_step_stays_within_its_budget(capsys):
    assert len(opcount.sweep_group()) == 12
    assert opcount.main() == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["group_ops_per_run_step"]) <= GROUP_OPS_BUDGET
    assert float(out["group_calls_per_run_step"]) <= GROUP_CALLS_BUDGET


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode counts are those of CPython 3.11")
def test_lone_gaussian_step_stays_within_its_budget(capsys):
    assert opcount.main() == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(out["gauss_ops_per_step"]) <= GAUSS_OPS_BUDGET
    assert float(out["gauss_calls_per_step"]) <= GAUSS_CALLS_BUDGET
