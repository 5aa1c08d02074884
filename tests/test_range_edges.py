"""Accepted configs at the edges of their ranges, generated from the field table.

Every float field of ``engine.RUN_FIELDS`` is set, in a base config of a
kind that reads it, to the smallest subnormal, 1e-300, 1e300 and the
largest float, and to their negatives where the field's rule allows them.
Every integer field (a list field by its one entry) is set to its lower
bound, one below it and 10**400.  Each case runs three steps through
``cli.main``, and each case of a Gaussian base also ``ngdiff finetune``.
The contract: exit 0, 2 or 3, never a traceback, an exit 2 that names the
case's own field, a record that re-parses (or, for ``finetune``, an
evaluation line) on exit 0, and at least one accepted float value per field
in each base.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ngdiff import engine
from ngdiff.cli import main
from ngdiff.engine import record_from_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUAD = json.loads((CONFIGS / "gdiff_quad.json").read_text())
GAUSSIAN = json.loads((CONFIGS / "ngdiff_gaussian.json").read_text())
GAUSSIAN["problem"].update(finetune_steps=3, per_class=20)

EDGES = (5e-324, 1e-300, 1e300, sys.float_info.max)
FLOAT_TYPES = (engine.FLOAT, engine.FLOATS)
INT_TYPES = (engine.INT, engine.INTS)

# a base config for each kind a field may be read by; a field every kind
# reads runs in each base of UNGATED
BASES = {
    "quad_pair": QUAD,
    "gaussian": GAUSSIAN,
    "gdiff": QUAD,
    "scheduled_gdiff": {**QUAD, "method": {"kind": "scheduled_gdiff", "c": 0.75, "decay": 0.9}},
    "npo": {**GAUSSIAN, "method": {"kind": "npo", "beta": 1.0}},
}
UNGATED = {
    "quad_fixed": QUAD,
    "quad_auto": {**QUAD, "lr": {"mode": "auto"}},
    "gaussian_fixed": {**GAUSSIAN, "lr": {"mode": "fixed", "eta": 0.1}},
    "gaussian_auto": GAUSSIAN,
}


def leaves(rows, types, prefix=()):
    """(path, type, rule, the kinds that read it) of every field whose type is in ``types``."""
    for name, typ, check, _, kinds in rows:
        if isinstance(typ, tuple):
            yield from leaves(typ, types, (*prefix, name))
        elif typ in types:
            yield (*prefix, name), typ, check, kinds


def bases(kinds):
    return {kind: BASES[kind] for kind in kinds} if kinds else UNGATED


def fresh_seeds(rng):
    return dict(zip(engine.Seeds._fields, map(int, rng.integers(0, 2**31, 3))))


def with_leaf(base, path, value, seeds):
    """``base`` running 3 steps from ``seeds``, with ``value`` at ``path``."""
    doc = json.loads(json.dumps(base))
    doc["steps"] = 3
    doc["seeds"] = seeds
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return doc


def float_cases():
    """(id, [(value, config document)]) for every float leaf and base."""
    rng = np.random.default_rng(20240)
    out = []
    for path, typ, check, kinds in leaves(engine.RUN_FIELDS, FLOAT_TYPES):
        for base_name, base in bases(kinds).items():
            docs = []
            for edge in (v for e in EDGES for v in (e, -e)):
                drawn = fresh_seeds(rng)
                # a list field gets the edge as its first entry, keeping a's length
                value = [edge, *base["problem"]["a"][1:]] if typ == engine.FLOATS else edge
                if edge > 0 or check is None or check[0](value):
                    docs.append((value, with_leaf(base, path, value, drawn)))
            out.append((f"{'.'.join(path)}-{base_name}", docs))
    return out


def lowest(typ, check):
    """The least of -1..8 that a field's own rule accepts; -1 for a field without one."""
    return next(
        v for v in range(-1, 9)
        if check is None or check[0]((v,) if typ == engine.INTS else v)
    )


def int_cases():
    """(id, [(value, config document)]) for every integer leaf and base: its lower
    bound, one below it and 10**400 (not for step counts, where it costs only time)."""
    rng = np.random.default_rng(20241)
    out = []
    for path, typ, check, kinds in leaves(engine.RUN_FIELDS, INT_TYPES):
        low = lowest(typ, check)
        values = [low, low - 1]
        if path[-1] not in ("steps", "finetune_steps"):
            values.append(10**400)
        for base_name, base in bases(kinds).items():
            docs = [
                (v, with_leaf(base, path, [v] if typ == engine.INTS else v, fresh_seeds(rng)))
                for v in values
            ]
            out.append((f"{'.'.join(path)}-{base_name}", docs))
    return out


CASES = float_cases()
INT_CASES = int_cases()
GAUSSIAN_BASES = ("gaussian", "npo", "gaussian_fixed", "gaussian_auto")
FINETUNE_CASES = [case for case in CASES + INT_CASES if case[0].split("-", 1)[1] in GAUSSIAN_BASES]


def test_every_float_field_is_covered():
    fields = {case_id.split("-")[0] for case_id, _ in CASES}
    assert fields == {".".join(path) for path, *_ in leaves(engine.RUN_FIELDS, FLOAT_TYPES)}
    assert len(fields) == 11


def test_every_int_field_is_covered():
    fields = {case_id.split("-")[0] for case_id, _ in INT_CASES}
    assert fields == {".".join(path) for path, *_ in leaves(engine.RUN_FIELDS, INT_TYPES)}
    assert len(fields) == 13


def run_cleanly(tmp_path, capsys, case_id, docs, command="run") -> int:
    """Run each document through ``cli.main``'s ``command``; the number of runs
    not rejected as a config error."""
    leaf = case_id.split("-")[0]
    accepted = 0
    for i, (value, doc) in enumerate(docs):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"out{i}"
        code = main([command, "--config", str(cfg), *(["--out", str(out)] if command == "run" else [])])
        printed, err = capsys.readouterr()
        assert code in (0, 2, 3), (value, code, err)
        assert "Traceback" not in err, (value, err)
        if code == 0 and command == "finetune":
            assert printed.startswith("no-unlearn: acc_retain="), (value, printed)
        elif code == 0:
            (record,) = out.glob("*/record.json")
            assert record_from_json(record.read_text()).steps == doc["steps"]
        if code == 2:
            assert err.startswith(f"config error: {leaf}: "), (value, err)
        accepted += code != 2
    return accepted


@pytest.mark.parametrize("case_id, docs", CASES, ids=[i for i, _ in CASES])
def test_range_edges_exit_cleanly(tmp_path, capsys, case_id, docs):
    assert run_cleanly(tmp_path, capsys, case_id, docs) >= 1


@pytest.mark.parametrize("case_id, docs", INT_CASES, ids=[i for i, _ in INT_CASES])
def test_int_range_edges_exit_cleanly(tmp_path, capsys, case_id, docs):
    run_cleanly(tmp_path, capsys, case_id, docs)


@pytest.mark.parametrize("case_id, docs", FINETUNE_CASES, ids=[i for i, _ in FINETUNE_CASES])
def test_gaussian_range_edges_finetune_cleanly(tmp_path, capsys, case_id, docs):
    run_cleanly(tmp_path, capsys, case_id, docs, "finetune")
