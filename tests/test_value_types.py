"""The package's value types: frozen named tuples, most of them pickled through their checks."""

import math
import pickle

import numpy as np
import pytest

from ngdiff import (
    LabeledBatch,
    LrState,
    ParetoPoint,
    QuadPairProblem,
    config_from_dict,
    fit_quadratic,
    run_unlearning,
    split_forget_retain,
)
from ngdiff.autodiff import _Cache

QUAD_DOC = {
    "method": {"kind": "gdiff", "c": 0.75},
    "lr": {"mode": "fixed", "eta": 0.1},
    "steps": 3,
    "seeds": {"data": 0, "init": 0, "method": 0},
    "problem": {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]},
}
GAUSS_DOC = {
    "method": {"kind": "npo", "beta": 0.5},
    "lr": {"mode": "auto", "eta": 0.01},
    "steps": 3,
    "seeds": {"data": 0, "init": 1, "method": 2},
    "problem": {"kind": "gaussian", "hidden": [4, 3]},
}


def _batch():
    return LabeledBatch(np.arange(12.0).reshape(6, 2), [0, 1, 2, 0, 1, 2], 3)


def _values():
    """One value of every value type, by name."""
    quad, gauss = config_from_dict(QUAD_DOC), config_from_dict(GAUSS_DOC)
    fit = fit_quadratic(0.1, 1.0, 0.5, 0.7)
    return {
        "LabeledBatch": _batch(),
        "ForgetRetainSplit": split_forget_retain(_batch(), 1),
        "MethodSpec": quad.method,
        "QuadPairProblem": QuadPairProblem([0.0, 0.0], [1.0, 0.0], "bounded_exp"),
        "QuadraticFit": fit,
        "LrState": LrState(eta=0.2, fitted=fit, guard_trips=1),
        "LrConfig": quad.lr,
        "Seeds": quad.seeds,
        "ProblemSpec": gauss.problem,
        "RunConfig": gauss,
        "ParetoPoint": ParetoPoint(0.1, 0.2, "tag"),
        "RunRecord": run_unlearning(quad),
    }


VALUES = _values()


def assert_same(copy, value, frozen=True):
    """Equal field by field, with every array of ``copy`` bit-equal and, if ``frozen``, read-only."""
    assert type(copy) is type(value)
    if isinstance(value, np.ndarray):
        assert copy.dtype == value.dtype and copy.tobytes() == value.tobytes()
        assert not (frozen and copy.flags.writeable)
    elif isinstance(value, tuple):
        assert len(copy) == len(value)
        for a, b in zip(copy, value):
            assert_same(a, b, frozen)
    elif isinstance(value, float):
        assert repr(copy) == repr(value)  # nan too
    else:
        assert copy == value


def test_every_value_type_is_covered():
    assert sorted(VALUES) == sorted({type(v).__name__ for v in VALUES.values()})
    assert len(VALUES) + 1 == 13  # and _Cache, which only Graph.run builds


@pytest.mark.parametrize("name", [*VALUES, "_Cache"])
def test_rebinding_a_field_raises(name):
    value = VALUES[name] if name != "_Cache" else _Cache([], [], None, None, None, None, False)
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


@pytest.mark.parametrize("name", list(VALUES))
def test_pickled_copy_is_equal_and_frozen(name):
    # a record's final parameters are a plain array, which unpickles writable
    frozen = name != "RunRecord"
    assert_same(pickle.loads(pickle.dumps(VALUES[name])), VALUES[name], frozen)


def _bypassed(cls, *fields):
    """A ``cls`` built without its checks, as a corrupted pickle would describe one."""
    return tuple.__new__(cls, fields)


INVALID = {
    "LabeledBatch": (
        _bypassed(LabeledBatch, np.zeros((2, 2)), np.array([0, 3]), 3),
        ValueError, r"labels must lie in \[0, class_count\)",
    ),
    "ForgetRetainSplit": (
        _bypassed(type(VALUES["ForgetRetainSplit"]), _batch(), _batch(), 1),
        ValueError, "forget split must contain only the forget class",
    ),
    "QuadPairProblem": (
        _bypassed(QuadPairProblem, np.zeros(2), np.zeros(2), "bounded_exp"),
        ValueError, "anchors must differ",
    ),
    "ParetoPoint": (
        _bypassed(ParetoPoint, math.nan, 0.0, ""),
        ValueError, "pareto point losses must be finite",
    ),
}


@pytest.mark.parametrize("name", list(INVALID))
def test_invalid_pickled_payload_raises_the_constructor_error(name):
    value, error, message = INVALID[name]
    payload = pickle.dumps(value)
    with pytest.raises(error, match=message):
        pickle.loads(payload)


def test_record_formats_its_trace_once():
    record = run_unlearning(config_from_dict(QUAD_DOC))
    assert record.trace_lines is record.trace_lines
    assert len(record.trace_lines) == record.steps == 3
