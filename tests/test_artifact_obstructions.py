"""A file, a directory or a dangling symlink in the way of one artifact of a grouped sweep.

Each call obstructs one artifact path of a lockstep-group sweep (quad ``c``
or Gaussian ``method``) and runs it through ``cli.main``, with the case
drawn from a seeded generator and the work bounded by the call count.  The
sweep exits 0, 2 or 3 with no traceback; a failing obstruction is reported
on the obstructed child's own ``error: value ...`` line (or on the
summary's ``error: --out ...`` line), and every other child writes the
artifacts of its lone run.
"""

import json

import numpy as np
import pytest

from ngdiff.cli import main

SEED = 2026
CALLS = 40
ARTIFACTS = ("config.json", "trace.csv", "record.json")
PATHS = ("run directory", *ARTIFACTS, "sweep_summary.csv")
KINDS = ("file", "directory", "dangling symlink")

QUAD = (
    {"method": {"kind": "gdiff", "c": 0.5}, "lr": {"mode": "fixed", "eta": 0.1}, "steps": 20,
     "seeds": {"data": 0, "init": 0, "method": 0},
     "problem": {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]}},
    "c", ("0.6", "0.75", "0.9"),
)
GAUSS = (
    {"method": {"kind": "ngdiff"}, "lr": {"mode": "auto"}, "steps": 10, "batch_size": 8, "eval_every": 5,
     "seeds": {"data": 0, "init": 1000, "method": 2000},
     "problem": {"kind": "gaussian", "per_class": 20, "finetune_steps": 10}},
    "method", ("gd", "rlw", "ngdiff"),
)


def sweep(tmp_path, case, out):
    doc, param, values = case
    config = tmp_path / "config-in.json"
    config.write_text(json.dumps(doc))
    return main(["sweep", "--config", str(config), "--out", str(out), "--param", param,
                 "--values", ",".join(values), "--jobs", "1"])


@pytest.fixture(scope="module")
def lone_runs(tmp_path_factory):
    """Each sweep's run directory names, in value order, and each child's lone artifacts."""
    tmp = tmp_path_factory.mktemp("lone")
    made = {}
    for name, case in (("quad", QUAD), ("gauss", GAUSS)):
        out = tmp / name
        assert sweep(tmp, case, out) == 0
        dirs = sorted(p for p in out.iterdir() if p.is_dir())
        by_value = {}
        for run_dir in dirs:
            config = json.loads((run_dir / "config.json").read_text())
            by_value[config["method"]["kind"] if case[1] == "method" else repr(config["method"]["c"])] = run_dir.name
        names = [by_value[v if case[1] == "method" else repr(float(v))] for v in case[2]]
        artifacts = {}
        for run_name in names:
            alone = tmp / f"alone-{run_name}"
            assert main(["run", "--config", str(out / run_name / "config.json"), "--out", str(alone)]) == 0
            artifacts[run_name] = {a: (alone / run_name / a).read_bytes() for a in ARTIFACTS}
        made[name] = names, artifacts
    return made


def obstruct(path, kind, rng):
    path.parent.mkdir(parents=True, exist_ok=True)
    if kind == "file":
        path.write_text("in the way\n")
    elif kind == "directory":
        path.mkdir()
    else:  # into a missing directory, or a missing file of an existing one: written through
        target = path.parent / ("missing-dir/target" if rng.random() < 0.5 else f".{path.name}-target")
        path.symlink_to(target)


def test_an_obstructed_artifact_fails_only_its_own_child(tmp_path, capsys, lone_runs):
    rng = np.random.default_rng(SEED)
    seen = set()
    for call in range(CALLS):
        name = ("quad", "gauss")[call % 2]
        case = QUAD if name == "quad" else GAUSS
        names, artifacts = lone_runs[name]
        where = PATHS[rng.integers(len(PATHS))]
        kind = KINDS[rng.integers(len(KINDS))]
        child = int(rng.integers(len(names)))
        seen.add((where, kind))
        out = tmp_path / f"call{call}"
        run_dir = out / names[child]
        target = {"run directory": run_dir, "sweep_summary.csv": out / "sweep_summary.csv"}.get(where, run_dir / where)
        obstruct(target, kind, rng)
        capsys.readouterr()
        code = sweep(tmp_path, case, out)
        err = capsys.readouterr().err
        what = f"call {call}: {kind} at the {where} of {names[child]} ({name})"
        assert code in (0, 2, 3), what
        assert "Traceback" not in err, what
        lines = err.splitlines()
        if code:
            value = case[2][child]
            own = "error: --out " if where == "sweep_summary.csv" else f"error: value {value}: --out "
            assert len(lines) == 1 and lines[0].startswith(own), (what, err)
        else:
            assert lines == [], what
        summary_blocked = where == "sweep_summary.csv" and kind == "directory"  # refused before any child runs
        for k, run_name in enumerate(names):
            if summary_blocked or (k == child and code):
                continue
            for artifact in ARTIFACTS:
                assert (out / run_name / artifact).read_bytes() == artifacts[run_name][artifact], (what, artifact)
    assert len(seen) >= 12  # most of the 15 (path, kind) pairs were drawn
