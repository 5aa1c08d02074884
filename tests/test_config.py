"""The config contract, leaf by leaf: every mutation of every field of the
shipped configs either fails with that field's path or round-trips."""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

from ngdiff import combiners, engine
from ngdiff.cli import main
from ngdiff.engine import ConfigError, config_from_dict, config_to_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GAUSSIAN = json.loads((CONFIGS / "ngdiff_gaussian.json").read_text())
QUAD = json.loads((CONFIGS / "gdiff_quad.json").read_text())

DOCS = {
    "gaussian": GAUSSIAN,
    "quad": QUAD,
    "quad_scheduled_theta0": {
        **QUAD,
        "method": {"kind": "scheduled_gdiff", "c": 0.75, "amplitude": 0.2, "decay": 0.9},
        "problem": {**QUAD["problem"], "theta0": [0.5, 1.0]},
    },
    "gaussian_npo": {**GAUSSIAN, "method": {"kind": "npo", "beta": 1.0}},
}

# the documented value of each field a document may leave out (README, "Config schema")
DEFAULTS = {
    "lr.eta": None,
    "lr.update_period": 10,
    "lr.probe_epsilon": 0.001,
    "batch_size": 32,
    "eval_every": 1,
    "method.amplitude": 0.0,
    "problem.classes": 3,
    "problem.per_class": 300,
    "problem.dim": 8,
    "problem.separation": 4.0,
    "problem.forget_class": 0,
    "problem.hidden": [16],
    "problem.finetune_steps": 400,
    "problem.finetune_eta": 0.5,
    "problem.forget_kind": "unbounded_quadratic",
    "problem.theta0": None,
}

MISSING = object()
MUTATIONS = (MISSING, None, True, "7", [], {}, 1.5, -1, 0, math.inf)


def leaves(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, (*prefix, key))
        else:
            yield (*prefix, key)


def mutate(doc, path, value):
    out = copy.deepcopy(doc)
    section = out
    for key in path[:-1]:
        section = section[key]
    if value is MISSING:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    return out


def lookup(doc, path):
    for key in path:
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def write(path, doc):
    # JSON has no infinity literal; an overflowing number parses to inf
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    return str(path)


@pytest.mark.parametrize("name", DOCS)
def test_every_leaf_echoes_unchanged(name):
    cfg = config_from_dict(DOCS[name])
    echo = config_to_dict(cfg)
    for path in leaves(DOCS[name]):
        assert lookup(echo, path) == lookup(DOCS[name], path)
        assert type(lookup(echo, path)) is type(lookup(DOCS[name], path))
    assert config_from_dict(echo) == cfg


# a value of every field that a section's kind gates
GATED = {**GAUSSIAN["problem"], **QUAD["problem"], "theta0": [0.5, 1.0],
         "c": 0.5, "amplitude": 0.2, "decay": 0.9, "beta": 1.0}
SECTION_ROWS = {"method": engine.METHOD_FIELDS, "problem": engine.PROBLEM_FIELDS}


@pytest.mark.parametrize(
    "section, kind",
    [("method", kind) for kind in (*combiners.KINDS, engine.NPO)]
    + [("problem", kind) for kind in (engine.GAUSSIAN, engine.QUAD_PAIR)],
)
def test_a_field_the_kind_does_not_read_holds_none(section, kind):
    read = {name for name, *_, kinds in SECTION_ROWS[section] if kinds is None or kind in kinds}
    given = {name: GATED[name] for name in read - {"kind"}}
    base = GAUSSIAN if kind in (engine.NPO, engine.GAUSSIAN) else QUAD
    cfg = config_from_dict({**base, section: {"kind": kind, **given}})
    holder = getattr(cfg, section)
    assert {name for name in holder._fields if getattr(holder, name) is None} == set(holder._fields) - read
    assert config_to_dict(cfg)[section] == {"kind": kind, **given}
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize(
    "name, path",
    [(name, path) for name, doc in DOCS.items() for path in leaves(doc)],
    ids=lambda x: ".".join(x) if isinstance(x, tuple) else x,
)
def test_every_leaf_mutation_fails_at_its_path_or_round_trips(tmp_path, capsys, name, path):
    leaf = ".".join(path)
    # a sweep value never touches the section of the mutated leaf
    sweep = ("--param", "eta", "--values", "0.1") if path[0] == "method" else (
        "--param", "method", "--values", "ngdiff")
    for i, value in enumerate(MUTATIONS):
        doc = mutate(DOCS[name], path, value)
        try:
            echoed = lookup(config_to_dict(config_from_dict(doc)), path)
        except ConfigError as exc:
            assert exc.fieldpath == leaf, (value, str(exc))
        else:
            if value is MISSING:
                assert leaf in DEFAULTS and echoed == DEFAULTS[leaf], value
            else:
                # an int may come back as a float where the field holds a float
                widened = type(value) is int and type(lookup(DOCS[name], path)) is float
                assert echoed == value and type(echoed) is (float if widened else type(value)), value
            continue
        # never run: every case that reaches the CLI is a config error
        cfg = write(tmp_path / f"cfg{i}.json", doc)
        run_out, sweep_out = tmp_path / f"run{i}", tmp_path / f"sweep{i}"
        assert main(["run", "--config", cfg, "--out", str(run_out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {leaf}: ") and "Traceback" not in err, (value, err)
        assert not run_out.exists()
        assert main(["sweep", "--config", cfg, "--out", str(sweep_out), *sweep]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: value {sweep[-1]}: {leaf}: ") and "Traceback" not in err, (value, err)
        assert not [p for p in sweep_out.iterdir() if p.is_dir()]


@pytest.mark.parametrize("flag, leaf", [("--seed-data", "seeds.data"), ("--seed-init", "seeds.init")])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, flag, leaf):
    doc = mutate(GAUSSIAN, ("problem", "per_class"), 10)
    cfg = write(tmp_path / "cfg.json", mutate(doc, ("problem", "finetune_steps"), 0))
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out), flag, "-1"]
    if command == "sweep":
        argv += ["--param", "method", "--values", "gd"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{leaf}: must be >= 0" in err and "Traceback" not in err
    assert not out.exists() or not [p for p in out.iterdir() if p.is_dir()]


@pytest.mark.parametrize(
    "seed, code", [(2**64 - 1, 0), (2**64, 2), (10**300, 2)], ids=["2**64-1", "2**64", "10**300"]
)
@pytest.mark.parametrize("name", ["data", "init", "method"])
def test_a_seed_is_below_2_to_the_64(tmp_path, capsys, name, seed, code):
    # a seed is spelled out in the run directory's name: a huge one must not blame --out
    doc = mutate(QUAD, ("steps",), 3)
    flag = [f"--seed-{name}", str(seed)]
    for i, (doc, extra) in enumerate(((mutate(doc, ("seeds", name), seed), []), (doc, flag))):
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", write(tmp_path / f"cfg{i}.json", doc), "--out", str(out), *extra]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == f"config error: seeds.{name}: must be >= 0 and <= 18446744073709551615\n"
            assert not out.exists()


@pytest.mark.parametrize("beta, code", [(1e-310, 2), (2 / sys.float_info.max, 2), (1.112536929253601e-308, 0)])
def test_npo_beta_keeps_2_over_beta_finite(tmp_path, capsys, beta, code):
    # the NPO loss scales by 2/beta: a smaller beta could never take a step
    doc = mutate(mutate(GAUSSIAN, ("problem", "per_class"), 20), ("problem", "finetune_steps"), 3)
    doc = {**doc, "method": {"kind": "npo", "beta": beta}, "steps": 3}
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path / "cfg.json", doc), "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err == "config error: method.beta: must be > 1.1125369292536007e-308\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "problem, leaf",
    [
        # 4*per_class*8 data entries: 2**24 at per_class 2**19
        ({"classes": 4, "dim": 8, "per_class": 2**19}, None),
        ({"classes": 4, "dim": 8, "per_class": 2**19 + 1}, "problem.per_class"),
        ({"per_class": 10**9}, "problem.per_class"),
        # 7*h + h + h*4 + 4 = 12h + 4 parameters: 2**24 at h = 1398101
        ({"classes": 4, "dim": 7, "hidden": [1398101]}, None),
        ({"classes": 4, "dim": 7, "hidden": [1398102]}, "problem.hidden"),
        ({"hidden": [4096, 4096]}, "problem.hidden"),
    ],
)
def test_gaussian_sizes_are_capped(problem, leaf):
    doc = {**GAUSSIAN, "problem": {**GAUSSIAN["problem"], **problem}}
    if leaf is None:
        config_from_dict(doc)
        return
    with pytest.raises(ConfigError) as exc:
        config_from_dict(doc)
    assert exc.value.fieldpath == leaf
