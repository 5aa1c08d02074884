"""``report`` and ``pareto`` on mutated records: an exit code, never a traceback.

Each value in the two shipped configs' ``record.json`` (every one outside
the trace, containers included; the trace itself, a seeded row and a seeded
cell of each column) is replaced by values of other types and at the edges
of its own, or deleted, and both commands run through ``cli.main`` on the
result.  A record that ``record_to_json`` cannot
have written must exit 2 with one ``config error`` line; a mutation that
keeps the record valid exits 0.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ngdiff.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("gdiff_quad.json", "ngdiff_gaussian.json")

DELETE = object()
# values of every JSON type, numbers at the edges of int64 and float64 included
POOL = [
    None, True, False, 0, 1, -1, 0.5, -0.0, 2**53 + 1, 2**63, -(2**63) - 1, 1e308, -1e308, 5e-324,
    math.nan, math.inf, -math.inf, "", "x", "gd", [], {}, [None], {"x": 1}, DELETE,
]
DRAWS = 3  # values per leaf drawn from the pool, besides two random numbers


def nodes(doc, path=()):
    """Paths to every value inside ``doc``, containers and leaves."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield (*path, key)
            yield from nodes(value, (*path, key))


def set_leaf(doc, path, value) -> None:
    *parents, last = path
    for part in parents:
        doc = doc[part]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = value


def mutated(head: dict, rows: list, path: tuple, value) -> str:
    """The text of a record with the leaf at ``path`` set to ``value``, or deleted.

    ``head`` is the record without its trace and ``rows`` the text of each
    trace row, so a mutation dumps again only what it changes.
    """
    if path == ("trace",):
        return json.dumps(head if value is DELETE else {**head, "trace": value})
    if path[0] == "trace":
        i = path[1]
        row = [json.loads(rows[i])]
        set_leaf(row, (0, *path[2:]), value)
        rows = [*rows[:i], *map(json.dumps, row), *rows[i + 1 :]]
    else:
        head = json.loads(json.dumps(head))
        set_leaf(head, path, value)
    return f'{json.dumps(head)[:-1]}, "trace": [{", ".join(rows)}]}}'


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    for name in SHIPPED:
        assert main(["run", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    return [json.loads(path.read_text()) for path in sorted(out.glob("*/record.json"))]


def test_mutated_records_exit_0_or_2_without_a_traceback(records, tmp_path, capsys):
    rng = np.random.default_rng(2024)
    bad = tmp_path / "record.json"
    pareto = ["--out", str(tmp_path / "pareto")]
    failures, calls, start = [], 0, time.perf_counter()
    capsys.readouterr()
    for doc in records:
        head = {key: value for key, value in doc.items() if key != "trace"}
        rows = [json.dumps(row) for row in doc["trace"]]
        # every value outside the trace; the trace, a seeded row and a seeded cell of each column
        trace = [("trace",), ("trace", int(rng.integers(len(rows))))]
        trace += [("trace", int(rng.integers(len(rows))), col) for col in range(len(doc["trace_columns"]))]
        for path in [*nodes(head), *trace]:
            drawn = [POOL[i] for i in rng.choice(len(POOL), DRAWS, replace=False)]
            drawn += [float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
                      int(rng.integers(-(2**62), 2**62))]
            for value in drawn:
                bad.write_text(mutated(head, rows, path, value))
                for argv in (["report", str(bad)], ["pareto", str(bad), *pareto]):
                    calls += 1
                    try:
                        code = main(argv)
                    except Exception as exc:  # every escape is a finding
                        code = f"{type(exc).__name__}: {exc}"
                    err = capsys.readouterr().err
                    if code not in (0, 2) or "Traceback" in err or (code == 2 and len(err.splitlines()) != 1):
                        failures.append(f"{argv[0]} {path} = {value!r}: {code} {err!r}")
    elapsed = time.perf_counter() - start
    print(f"{calls} calls in {elapsed:.1f} s", file=sys.stderr)
    assert not failures, "\n".join(failures[:20])
    assert calls > 1000  # the work is bounded by the call count; the time is only printed
