"""Accepted configs at the edges of their ranges, generated from the field table.

Every float field of ``engine.RUN_FIELDS`` is set, in a base config of a
kind that reads it, to the smallest subnormal, 1e-300, 1e300 and the
largest float, and to their negatives where the field's rule allows them.
Each case runs three steps through ``cli.main``.  The contract: exit 0, 2 or
3, never a traceback, a record that re-parses on exit 0, and at least one
accepted value per field in each base.
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


def float_leaves(rows, prefix=()):
    """(path, type, rule, the kinds that read it) of every float or float-list field."""
    for name, typ, check, _, kinds in rows:
        if isinstance(typ, tuple):
            yield from float_leaves(typ, (*prefix, name))
        elif typ in (engine.FLOAT, engine.FLOATS):
            yield (*prefix, name), typ, check, kinds


def cases():
    """(id, [(value, config document)]) for every float leaf and base."""
    rng = np.random.default_rng(20240)
    out = []
    for path, typ, check, kinds in float_leaves(engine.RUN_FIELDS):
        bases = {kind: BASES[kind] for kind in kinds} if kinds else UNGATED
        for base_name, base in bases.items():
            docs = []
            for edge in (v for e in EDGES for v in (e, -e)):
                doc = json.loads(json.dumps(base))
                doc["steps"] = 3
                doc["seeds"] = dict(zip(engine.Seeds._fields, map(int, rng.integers(0, 2**31, 3))))
                section = doc
                for key in path[:-1]:
                    section = section[key]
                # a list field gets the edge as its first entry, keeping a's length
                value = [edge, *doc["problem"]["a"][1:]] if typ == engine.FLOATS else edge
                if edge > 0 or check is None or check[0](value):
                    section[path[-1]] = value
                    docs.append((value, doc))
            out.append((f"{'.'.join(path)}-{base_name}", docs))
    return out


CASES = cases()


def test_every_float_field_is_covered():
    fields = {case_id.split("-")[0] for case_id, _ in CASES}
    assert fields == {".".join(path) for path, *_ in float_leaves(engine.RUN_FIELDS)}
    assert len(fields) == 11


@pytest.mark.parametrize("docs", [docs for _, docs in CASES], ids=[i for i, _ in CASES])
def test_range_edges_exit_cleanly(tmp_path, capsys, docs):
    accepted = 0
    for i, (value, doc) in enumerate(docs):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"out{i}"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (value, code, err)
        assert "Traceback" not in err, (value, err)
        if code == 0:
            (record,) = out.glob("*/record.json")
            assert record_from_json(record.read_text()).steps == 3
        accepted += code != 2
    assert accepted >= 1
