"""The quad loop's per-step Python stays within the budget of its last tuned state."""

import json
import sys

import pytest

import opcount

# ops and calls per step of configs/gdiff_quad.json as measured once the
# parameter vectors became plain arrays (565 and 16), with a margin of two ops;
# CPython 3.11 is the version CI runs
OPS_BUDGET = 567
CALLS_BUDGET = 16
# ops per run and step of the 12-value c group of quad_sweep pass 0 once its
# direction formula and update became group operations and its loss rows a
# bound method's map (284.2), plus two
GROUP_OPS_BUDGET = 287


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
