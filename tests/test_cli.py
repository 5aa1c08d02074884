"""Command-line interface: exit codes, artifacts, determinism, dominance."""

import builtins
import csv
import errno
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngdiff.autodiff
import ngdiff.cli
import ngdiff.engine
import ngdiff.scheduler
from ngdiff.cli import main
from ngdiff.engine import EvalResult, record_from_json
from ngdiff.objectives import QuadPairProblem, lsp_minimizer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def quad_doc(method, steps=200, lr=None, theta0=None):
    problem = {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]}
    if theta0:
        problem["theta0"] = theta0
    return {
        "method": method,
        "lr": lr or {"mode": "fixed", "eta": 0.1},
        "steps": steps,
        "seeds": {"data": 0, "init": 0, "method": 0},
        "problem": problem,
    }


def gauss_doc(**problem):
    return {
        "method": {"kind": "ngdiff"},
        "lr": {"mode": "auto"},
        "steps": 2,
        "seeds": {"data": 0, "init": 1, "method": 2},
        "problem": {
            "kind": "gaussian", "classes": 3, "per_class": 10, "dim": 4,
            "hidden": [4], "finetune_steps": 2, **problem,
        },
    }


def small_gauss_doc(method, **problem):
    """A Gaussian config whose finetune and unlearning take 20 steps each."""
    doc = gauss_doc(per_class=30, finetune_steps=20, **problem)
    doc.update(method=method, steps=20, eval_every=5)
    return doc


def src_env():
    """The environment of a subprocess that imports ngdiff from this checkout's ``src``."""
    return {**os.environ, "PYTHONPATH": str(Path(ngdiff.engine.__file__).resolve().parent.parent)}


def run_dirs(root):
    return sorted(p for p in root.iterdir() if p.is_dir())


# every method kind `sweep --param method` can set up on its own
SWEEP_METHODS = ("gd", "ga", "lossnorm", "rlw", "pcgrad", "imtlg", "ngdiff")


def assert_children_match_lone_runs(tmp_path, out):
    """Every finished child under ``out`` writes the artifacts a lone ``run`` of its config.json writes."""
    for child in run_dirs(out):
        if not (child / "record.json").exists():
            continue
        alone = tmp_path / "alone"
        assert main(["run", "--config", str(child / "config.json"), "--out", str(alone)]) == 0
        for artifact in ("config.json", "record.json", "trace.csv"):
            assert (child / artifact).read_bytes() == (alone / child.name / artifact).read_bytes()


def find_one(root, name):
    hits = sorted(root.rglob(name))
    assert hits, f"no {name} under {root}"
    return hits


def csv_rows(path) -> list:
    """The rows of a CSV artifact, as ``csv.reader`` reads them back."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def one_record(tmp_path, doc):
    """The record.json path of one run of ``doc``."""
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    return find_one(tmp_path / "run", "record.json")[0]


class TestRun:
    def test_valid_config_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "ngdiff"}, theta0=[0.5, 1.0]))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "loss_retain=" in out and "overhead=" in out
        run_dirs = [p for p in (tmp_path / "out").iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        for artifact in ("trace.csv", "record.json", "config.json"):
            assert (run_dirs[0] / artifact).exists()
        header = (run_dirs[0] / "trace.csv").read_text().splitlines()[0]
        assert header == (
            "step,loss_retain,loss_forget,acc_retain,acc_forget,lr,coeff_c,"
            "gnorm_retain,gnorm_forget,cos_rf,guard"
        )

    def test_invalid_coefficient_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 1.5}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        doc = quad_doc({"kind": "gd"})
        doc["surprise"] = True
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "ngdiff"}, theta0=[0.5, 1.0]))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        trace = find_one(tmp_path / "out", "trace.csv")[0]
        first = trace.read_bytes()
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert trace.read_bytes() == first

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numeric_abort_exits_3_with_step(self, tmp_path, capsys):
        doc = quad_doc({"kind": "ga"}, steps=2000, lr={"mode": "fixed", "eta": 1.0}, theta0=[2.0, 1.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "step" in capsys.readouterr().err

    def test_non_finite_fitted_step_size_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ngdiff.scheduler, "optimal_lr", lambda fit: math.inf)
        doc = quad_doc({"kind": "ngdiff"}, steps=5, lr={"mode": "auto"}, theta0=[0.5, 1.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite value at step 0: step size must be finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "problem, fieldpath",
        [
            ({"dim": 2}, "problem.dim"),
            ({"forget_class": 3}, "problem.forget_class"),
            ({"forget_class": -1}, "problem.forget_class"),
            ({"classes": 1, "forget_class": 0}, "problem.classes"),
            ({"hidden": [0]}, "problem.hidden"),
            ({"per_class": 0}, "problem.per_class"),
            ({"separation": 0.0}, "problem.separation"),
        ],
    )
    def test_bad_gaussian_problem_exits_2_with_field_path(self, tmp_path, capsys, problem, fieldpath):
        cfg = write_config(tmp_path / "cfg.json", gauss_doc(**problem))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {fieldpath}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "problem, fieldpath",
        [
            ({"theta0": [0.0, 0.0, 0.0]}, "problem.theta0"),
            ({"b": [1.0]}, "problem.b"),
            ({"b": [0.0, 0.0]}, "problem.b"),
            ({"a": [], "b": []}, "problem.a"),
            ({"a": [math.inf, 0.0]}, "problem.a"),
            ({"b": [math.inf, 0.0]}, "problem.b"),
            ({"theta0": [0.0, math.inf]}, "problem.theta0"),
        ],
    )
    def test_bad_quad_problem_exits_2_with_field_path(self, tmp_path, capsys, problem, fieldpath):
        doc = quad_doc({"kind": "gd"}, steps=5)
        doc["problem"].update(problem)
        # JSON has no infinity literal; an overflowing number parses to inf
        text = json.dumps(doc).replace("Infinity", "1e999")
        (tmp_path / "cfg.json").write_text(text)
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {fieldpath}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "changes, fieldpath",
        [
            # integer fields: int() of the parsed infinity overflows
            ({"seeds.data": math.inf}, "seeds.data"),
            ({"steps": math.inf}, "steps"),
            ({"lr.update_period": math.inf}, "lr.update_period"),
            ({"batch_size": math.inf}, "batch_size"),
            ({"problem.classes": math.inf}, "problem.classes"),
            ({"problem.hidden": [math.inf]}, "problem.hidden"),
            # float fields that must be finite
            ({"lr": {"mode": "fixed", "eta": math.inf}}, "lr.eta"),
            ({"lr.probe_epsilon": math.inf}, "lr.probe_epsilon"),
            ({"method": {"kind": "npo", "beta": math.inf}}, "method.beta"),
            ({"method": {"kind": "scheduled_gdiff", "c": 0.5, "amplitude": math.inf, "decay": 0.9}},
             "method.amplitude"),
            ({"method": {"kind": "gd", "c": math.inf}}, "method.c"),
        ],
        ids=[
            "seeds.data", "steps", "lr.update_period", "batch_size", "problem.classes",
            "problem.hidden", "lr.eta", "lr.probe_epsilon", "method.beta", "method.amplitude",
            "method.c",
        ],
    )
    def test_infinite_field_exits_2_with_field_path(self, tmp_path, capsys, changes, fieldpath):
        doc = gauss_doc()
        for path, value in changes.items():
            *outer, key = path.split(".")
            section = doc
            for name in outer:
                section = section[name]
            section[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(doc).replace("Infinity", "1e999"))
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {fieldpath}:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, fieldpath",
        [
            ({**gauss_doc(), "steps": 0}, "steps"),
            ({**gauss_doc(), "batch_size": 0}, "batch_size"),
            ({**gauss_doc(), "eval_every": -1}, "eval_every"),
            (quad_doc({"kind": "npo", "beta": 0.5}), "method.kind"),
        ],
        ids=["steps", "batch_size", "eval_every", "npo-on-quad"],
    )
    def test_bad_run_field_exits_2_with_its_name(self, tmp_path, capsys, doc, fieldpath):
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {fieldpath}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method, fieldpath",
        [
            ({"kind": "npo", "beta": None}, "method.beta"),
            ({"kind": "npo"}, "method.beta"),
            ({"kind": "scheduled_gdiff", "c": 0.5, "amplitude": None, "decay": 0.9}, "method.amplitude"),
            ({"kind": "scheduled_gdiff", "c": 0.5, "decay": 10**400}, "method.decay"),
        ],
    )
    def test_bad_method_field_exits_2_with_one_path(self, tmp_path, capsys, method, fieldpath):
        cfg = write_config(tmp_path / "cfg.json", gauss_doc() | {"method": method})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {fieldpath}: ")
        assert err.count(f"{fieldpath}:") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "method, fieldpath",
        [
            ({"kind": "gd", "decay": 7.0, "amplitude": 3.0}, "method.amplitude"),
            ({"kind": "ngdiff", "c": 0.5}, "method.c"),
            ({"kind": "rlw", "c": None}, "method.c"),
            ({"kind": "gdiff", "c": 0.5, "decay": 0.9}, "method.decay"),
            ({"kind": "gdiff", "c": 0.5, "amplitude": 0.0}, "method.amplitude"),
        ],
    )
    def test_method_field_the_kind_ignores_exits_2(self, tmp_path, capsys, method, fieldpath):
        cfg = write_config(tmp_path / "cfg.json", quad_doc(method, steps=5))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {fieldpath}: not used by method kind")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_quad_gradient_exits_3_at_step_0(self, tmp_path, capsys):
        doc = quad_doc({"kind": "gd"}, steps=5, theta0=[1e308, 0.0])
        doc["problem"].update(a=[-1e308, 0.0], b=[0.0, 0.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "step 0" in err and "gradient entries must be finite" in err

    @pytest.mark.parametrize(
        "method, eta, steps", [("ga", 1e308, 1), ("gd", 1e308, 1), ("ngdiff", 1e307, 2)]
    )
    def test_overflowing_final_evaluation_exits_3(self, tmp_path, capsys, method, eta, steps):
        # the last update leaves parameters whose final cross-entropy overflows
        doc = small_gauss_doc({"kind": method})
        doc.update(lr={"mode": "fixed", "eta": eta}, steps=steps)
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: non-finite value at step {steps}: non-finite cross-entropy\n"

    def test_diverging_run_prints_only_its_error_line(self, tmp_path):
        doc = quad_doc({"kind": "ga"}, steps=3000, lr={"mode": "fixed", "eta": 1.0}, theta0=[2.0, 1.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "ngdiff.cli",
             "run", "--config", cfg, "--out", str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: non-finite value at step 512: task loss is non-finite\n"

    @pytest.mark.parametrize(
        "section, value", [("lr", None), ("problem", 3), ("seeds", [0, 1, 2]), ("method", "ngdiff")]
    )
    def test_non_object_section_exits_2(self, tmp_path, capsys, section, value):
        doc = quad_doc({"kind": "gd"}, steps=5)
        doc[section] = value
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed-data", "1"]) == 2
        assert f"config error: {section}: must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "finetune"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        argv = {
            "run": ["run", "--config", str(cfg), "--out", str(tmp_path / "out")],
            "sweep": ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                      "--param", "c", "--values", "0.5"],
            "finetune": ["finetune", "--config", str(cfg)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {cfg}: config nests too deeply to parse\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed-data", "1"]) == 2
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"

    @pytest.mark.parametrize("value", [1e-200, 1e-300, 5e-324])
    @pytest.mark.parametrize("leaf", ["probe_epsilon", "eta"])
    @pytest.mark.parametrize("config", ["gdiff_quad.json", "ngdiff_gaussian.json"])
    def test_probe_too_small_to_fit_runs_to_the_end(self, tmp_path, capsys, config, leaf, value):
        # the probe's squared size rounds to 0: every update is a guard trip
        doc = json.loads((CONFIGS / config).read_text())
        doc["lr"] = {"mode": "auto", leaf: value}
        doc["steps"] = 3
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        record = record_from_json(find_one(tmp_path / "out", "record.json")[0].read_text())
        assert [row.lr for row in record.rows] == [value] * 3
        assert record.guard_trips == 1

    def test_probe_too_small_to_fit_sweeps_every_combiner(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "gdiff_quad.json").read_text())
        doc["lr"] = {"mode": "auto", "probe_epsilon": 5e-324}
        doc["steps"] = 3
        cfg = write_config(tmp_path / "cfg.json", doc)
        methods = "gd,ga,lossnorm,rlw,pcgrad,imtlg,ngdiff"
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--param", "method"]
        assert main([*argv, "--values", methods]) == 0
        assert capsys.readouterr().err == ""
        assert len(find_one(tmp_path / "out", "record.json")) == 7

    def test_seed_flags_override_file(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        assert main(
            ["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed-method", "9"]
        ) == 0
        echoed = json.loads(find_one(tmp_path / "out", "config.json")[0].read_text())
        assert echoed["seeds"]["method"] == 9

    def test_unknown_flag_is_hard_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--wat"]) == 2

    def test_help_enumerates_flags(self, capsys):
        assert main(["run", "--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--out", "--seed-data", "--seed-init", "--seed-method"):
            assert flag in text
        assert main(["sweep", "--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--param", "--values", "--jobs"):
            assert flag in text


class TestSweep:
    def test_quad_coefficient_sweep_matches_closed_forms(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=900))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--config", cfg, "--out", str(out),
                "--param", "c", "--values", "0.6,0.75,0.9",
            ]
        )
        assert code == 0
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert rows[0] == "c,loss_retain,loss_forget,acc_retain,acc_forget"
        prob = QuadPairProblem(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        for line in rows[1:]:
            c, loss_r, loss_f = line.split(",")[:3]
            target = lsp_minimizer(prob, float(c))
            assert float(loss_r) == pytest.approx(prob.retain_loss(target), abs=1e-6)
            assert float(loss_f) == pytest.approx(prob.forget_loss(target), abs=1e-6)

    def test_sweep_children_all_non_dominated(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=900))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,0.75,0.9"]
        ) == 0
        records = [str(p) for p in find_one(out, "record.json")]
        assert len(records) == 3
        capsys.readouterr()
        assert main(["pareto", *records, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("non-dominated:") == 3
        pareto_rows = (out / "pareto.csv").read_text().splitlines()
        assert len(pareto_rows) == 1 + 3

    def test_a_value_with_a_newline_stays_one_cell(self, tmp_path):
        # float() takes "0.6\n", so the value runs and its summary cell holds the newline
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=20))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6\n,0.7"]) == 0
        rows = csv_rows(out / "sweep_summary.csv")
        assert [row[0] for row in rows] == ["c", "0.6\n", "0.7"]
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=100))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", "--config", cfg, "--out", str(serial), "--param", "c", "--values", "0.6,0.9"]) == 0
        assert main(
            ["sweep", "--config", cfg, "--out", str(parallel), "--param", "c", "--values", "0.6,0.9", "--jobs", "2"]
        ) == 0
        assert (serial / "sweep_summary.csv").read_text() == (parallel / "sweep_summary.csv").read_text()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("steps", [511, 512])
    def test_summary_row_matches_record_json(self, tmp_path, steps):
        # at 512 steps the final losses overflow to inf, which record.json stores as null
        doc = quad_doc({"kind": "ga"}, steps=steps, lr={"mode": "fixed", "eta": 1.0}, theta0=[2.0, 1.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--param", "eta", "--values", "1.0"]) == 0
        f = record_from_json(find_one(out, "record.json")[0].read_text()).final
        row = (out / "sweep_summary.csv").read_text().splitlines()[1]
        assert row == f"1.0,{f.loss_retain!r},{f.loss_forget!r},{f.acc_retain!r},{f.acc_forget!r}"

    def test_run_line_is_written_whole(self, tmp_path, monkeypatch):
        # forked sweep children share one stdout; unbuffered, a line written in two
        # pieces lets another child's line in between
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

            def flush(self):
                pass

        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", "c", "--values", "0.6"]) == 0
        assert len(writes) == 1 and writes[0].count("\n") == 1 and writes[0].endswith("\n")

    def test_empty_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "c", "--values", ""]) == 2

    def test_bad_param_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        out = tmp_path / "out"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "bogus", "--values", "1"]
        ) == 2
        assert "argument --param: invalid choice: 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_values_exit_2_before_any_child(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.7,0.7", "--jobs", "2"]
        ) == 2
        assert "0.7" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,abc"]) == 2
        assert "'abc' is not a number" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_config_in_sweep_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [])
        assert main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", "c", "--values", "0.6"]
        ) == 2
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"
        assert not (tmp_path / "s").exists()

    def test_non_object_section_in_sweep_exits_2(self, tmp_path, capsys):
        doc = quad_doc({"kind": "gd"}, steps=5)
        doc["lr"] = None
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", "eta", "--values", "0.1"]
        ) == 2
        assert "lr: must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, param, values, failing",
        [(quad_doc({"kind": "gdiff", "c": 0.5}, steps=20), "c", "0.6,0.75,0.9", "0.75"),
         # one lockstep group: the failing value leaves it and the others step on
         (small_gauss_doc({"kind": "ngdiff"}), "method", "gd,rlw,ngdiff", "rlw")],
        ids=["quad", "gaussian-lockstep"],
    )
    def test_unexpected_child_error_is_a_failed_value(
        self, tmp_path, capsys, monkeypatch, doc, param, values, failing
    ):
        real = ngdiff.combiners.coefficient

        def flaky(spec, *args, **kwargs):
            if failing in (spec.kind, str(spec.c)):
                raise RuntimeError("disk on fire")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(ngdiff.combiners, "coefficient", flaky)
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", param, "--values", values, "--jobs", "1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: value {failing}: RuntimeError: disk on fire (at test_cli.py:")
        assert len(err.splitlines()) == 1
        listed = [line.split(",")[0] for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert listed == [v for v in values.split(",") if v != failing]
        monkeypatch.setattr(ngdiff.combiners, "coefficient", real)
        assert_children_match_lone_runs(tmp_path, out)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "param, values, method",
        [("method", ",".join(SWEEP_METHODS), {"kind": "ngdiff"}),
         ("beta", "0.5,1.0", {"kind": "npo", "beta": 1.0})],
    )
    def test_children_match_standalone_runs(self, tmp_path, capsys, param, values, method, jobs):
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc(method))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", param, "--values", values,
             "--jobs", jobs]
        ) == 0
        assert len(run_dirs(out)) == len(values.split(","))
        assert_children_match_lone_runs(tmp_path, out)

    @pytest.mark.parametrize(
        "param, values, method",
        [("method", "gd,ngdiff,rlw", {"kind": "ngdiff"}), ("beta", "0.5,1.0", {"kind": "npo", "beta": 1.0})],
    )
    def test_unequal_minibatches_in_lockstep_match_standalone_runs(self, tmp_path, capsys, param, values, method):
        # 60 retain and 30 forget rows: a 40-row minibatch is cut to 30 on the forget side
        doc = small_gauss_doc(method)
        doc["batch_size"] = 40
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", param, "--values", values, "--jobs", "1"]
        ) == 0
        assert len(run_dirs(out)) == len(values.split(","))
        assert_children_match_lone_runs(tmp_path, out)

    def test_aborting_child_leaves_its_lockstep_group_alone(self, tmp_path, capsys):
        # eta 1e308 overflows the first layer at step 1; eta 0.01 runs its 20 steps
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "ngdiff"}))
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", cfg, "--out", str(out), "--param", "eta", "--values", "1e308,0.01",
                "--jobs", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        aborted, finished = sorted(run_dirs(out), key=lambda d: (d / "record.json").exists())
        assert [p.name for p in aborted.iterdir()] == ["config.json"]
        lone_out = tmp_path / "lone"
        assert main(["run", "--config", str(aborted / "config.json"), "--out", str(lone_out)]) == 3
        lone_err = capsys.readouterr().err
        assert lone_err == "error: non-finite value at step 1: non-finite pre-activation in layer 1\n"
        assert err == lone_err.replace("error: ", "error: value 1e308: ", 1)
        assert [line.split(",")[0] for line in (out / "sweep_summary.csv").read_text().splitlines()] == [
            "eta", "0.01",
        ]
        assert_children_match_lone_runs(tmp_path, out)

    def test_a_lockstep_group_makes_one_step_pass_per_step(self, tmp_path, capsys, monkeypatch):
        runs_per_pass = []
        real = ngdiff.autodiff.Graph.run

        def spy(graph, params, bindings):
            if bindings.get("groups") == 2:  # a step's stacked retain and forget minibatches
                runs_per_pass.append(1 if np.ndim(params) == 1 else len(params))
            return real(graph, params, bindings)

        monkeypatch.setattr(ngdiff.autodiff.Graph, "run", spy)
        argv = ["sweep", "--config", str(CONFIGS / "ngdiff_gaussian.json"), "--out", str(tmp_path / "s"),
                "--param", "method", "--values", ",".join(SWEEP_METHODS), "--jobs", "1"]
        assert main(argv) == 0
        assert runs_per_pass == [7] * 300

    @pytest.mark.parametrize(
        "values, jobs, sizes",
        [("gd,ga,lossnorm,rlw,pcgrad,imtlg,ngdiff", 2, [4, 3]), ("gd,ga,lossnorm", 2, [2, 1]),
         ("gd,ga", 8, [1, 1]), ("gd,ga,npo,ngdiff", 1, [3, 1]), ("gd,npo,ga,ngdiff,lossnorm", 2, [2, 2, 1])],
    )
    def test_chunks_split_each_lockstep_group(self, values, jobs, sizes):
        cfgs = [
            ngdiff.engine.config_from_dict(small_gauss_doc({"kind": v, **({"beta": 1.0} if v == "npo" else {})}))
            for v in values.split(",")
        ]
        chunks = ngdiff.cli._chunks(cfgs, jobs)
        assert [len(chunk) for chunk in chunks] == sizes
        assert sorted(k for chunk in chunks for k in chunk) == list(range(len(cfgs)))
        for chunk in chunks:
            assert chunk == sorted(chunk)
            assert len({ngdiff.engine.lockstep_key(cfgs[k]) for k in chunk}) == 1

    @pytest.mark.parametrize(
        "param, values, method",
        [("method", "ngdiff,gd,rlw", {"kind": "ngdiff"}), ("beta", "0.5,1.0", {"kind": "npo", "beta": 1.0})],
    )
    def test_sweep_finetunes_once(self, tmp_path, monkeypatch, param, values, method):
        calls = []
        gens = []
        real = ngdiff.engine.finetune
        real_gen = ngdiff.engine.gen_gaussian_clusters

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def counted_gen(*args, **kwargs):
            gens.append(1)
            return real_gen(*args, **kwargs)

        monkeypatch.setattr(ngdiff.engine, "finetune", counted)
        monkeypatch.setattr(ngdiff.engine, "gen_gaussian_clusters", counted_gen)
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc(method))
        assert main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", param, "--values", values,
             "--jobs", "1"]
        ) == 0
        assert len(calls) == 1
        assert len(gens) == 1

    @pytest.mark.parametrize(
        "param, values", [("c", "0.3,0.7"), ("method", "npo,ngdiff")]
    )
    def test_npo_config_sweeps_fields_the_child_kind_reads(self, tmp_path, param, values):
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "npo", "beta": 1.0}))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", param, "--values", values]
        ) == 0
        rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == values.split(",")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_aborting_finetune_fails_every_value(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "ngdiff"}, finetune_eta=1e308))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "method", "--values", "ngdiff,gd",
             "--jobs", jobs]
        ) == 3
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": non-finite value at step ")[0] for line in err] == [
            "error: value ngdiff", "error: value gd",
        ]
        assert (out / "sweep_summary.csv").read_text() == "method,loss_retain,loss_forget,acc_retain,acc_forget\n"

    def test_invalid_method_value_fails_alone(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "gd"}))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "method", "--values", "ngdiff,bogus"]
        ) == 2
        assert "error: value bogus: method.kind: must be one of" in capsys.readouterr().err
        listed = [line.split(",")[0] for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert listed == ["ngdiff"]
        assert [p.name.split("_")[0] for p in run_dirs(out)] == ["ngdiff"]

    def test_overflowing_final_evaluation_is_a_failed_value(self, tmp_path, capsys):
        doc = small_gauss_doc({"kind": "ga"})
        doc.update(lr={"mode": "fixed", "eta": 1e308}, steps=1)
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "eta", "--values", "1e308"]
        ) == 3
        assert "error: value 1e308: non-finite value at step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("param, values", [("c", "0.3,0.7"), ("method", "gd,ngdiff"), ("beta", "0.5")])
    def test_unknown_method_field_exits_2(self, tmp_path, capsys, param, values):
        # run and sweep --param eta reject the typo when they parse the whole config
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "gdiff", "c": 0.5, "decya": 0.9}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--param", param, "--values", values]) == 2
        assert "config error: method.decya: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        out = tmp_path / "s"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,0.9",
             "--jobs", jobs]
        ) == 2
        assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs, values, forks", [("8", "0.6,0.7,0.8", 2), ("2", "0.6,0.7,0.8", 1),
                                ("8", "0.6", 0), ("8", "0.6,2.0", 0)],
    )
    def test_sweep_forks_one_child_per_lane_but_its_own(self, tmp_path, monkeypatch, jobs, values, forks):
        made = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or real())
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", "c", "--values", values,
              "--jobs", jobs])
        # c=2.0 fails its config check, which leaves one child to run; this process runs the first chunk
        assert len(made) == forks
        ok = (tmp_path / "s" / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in ok] == [v for v in values.split(",") if v != "2.0"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_without_fork_this_process_runs_every_lane(self, tmp_path, monkeypatch, fork):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=100))
        argv = ["sweep", "--config", cfg, "--param", "c", "--values", "0.6,0.7,0.9", "--jobs", "3"]
        assert main([*argv, "--out", str(tmp_path / "forked")]) == 0
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            def no_process_to_spare():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_process_to_spare)
        assert main([*argv, "--out", str(tmp_path / "alone")]) == 0
        assert (tmp_path / "forked" / "sweep_summary.csv").read_bytes() == (
            tmp_path / "alone" / "sweep_summary.csv").read_bytes()
        assert_children_match_lone_runs(tmp_path, tmp_path / "alone")

    def test_a_killed_child_fails_its_values_alone(self, tmp_path, capsys, monkeypatch):
        import signal

        sweep_pid = os.getpid()
        real = ngdiff.combiners.coefficient

        def rule(*args):
            if os.getpid() != sweep_pid:  # mid-chunk, in the forked child
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(ngdiff.combiners, "coefficient", rule)
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "ngdiff"}))
        out = tmp_path / "sweep"
        # chunks gd,ga (this process) and rlw (the child)
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "method", "--values", "gd,ga,rlw",
             "--jobs", "2"]
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: value rlw: sweep child process ")
        assert "(killed by signal 9)" in err[0]
        listed = [line.split(",")[0] for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert listed == ["gd", "ga"]
        monkeypatch.setattr(ngdiff.combiners, "coefficient", real)
        finished = [p.name.split("_")[0] for p in run_dirs(out) if (p / "record.json").exists()]
        assert sorted(finished) == ["ga", "gd"]
        assert_children_match_lone_runs(tmp_path, out)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupted_sweep_kills_and_reaps_its_children(self, tmp_path, monkeypatch):
        import time

        sweep_pid = os.getpid()

        def sweep_child(*task):
            if os.getpid() != sweep_pid:
                time.sleep(60)  # a child still running when the sweep process is interrupted
            raise KeyboardInterrupt

        monkeypatch.setattr(ngdiff.cli, "_sweep_child", sweep_child)
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", "c",
                  "--values", "0.6,0.7,0.8", "--jobs", "3"])
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_unreadable_result_fails_the_lanes_values(self, tmp_path, capsys, monkeypatch):
        def short_pickle(results, fh):
            fh.write(ngdiff.cli.pickle.dumps(results)[:-3])

        monkeypatch.setattr(ngdiff.cli.pickle, "dump", short_pickle)
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,0.7,0.8",
                     "--jobs", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        # one lockstep group in two chunks: 0.6,0.7 in this process and 0.8 in the child
        assert [line.split(": sweep child process ")[0] for line in err] == ["error: value 0.8"]
        assert "(exit code 0) sent no readable results: UnpicklingError" in err[0]
        listed = [line.split(",")[0] for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert listed == ["0.6", "0.7"]

    def test_equal_problems_share_one_start(self, monkeypatch):
        made = []
        monkeypatch.setattr(ngdiff.engine, "no_unlearn", lambda cfg: made.append(cfg) or object())
        # parsed apart, so the problems are equal but not the same object
        cfgs = [ngdiff.engine.config_from_dict(small_gauss_doc({"kind": k})) for k in ("gd", "ga")]
        other = ngdiff.engine.config_from_dict(small_gauss_doc({"kind": "gd"}, dim=5))
        assert cfgs[0].problem is not cfgs[1].problem
        starts = ngdiff.cli._shared_starts([*cfgs, other])
        assert len(made) == 2
        assert starts[0] is starts[1] is not starts[2]

    def test_eta_sweep_switches_to_fixed_mode(self, tmp_path):
        doc = quad_doc({"kind": "ngdiff"}, steps=20, lr={"mode": "auto"}, theta0=[0.5, 1.0])
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "eta", "--values", "0.05,0.1"]
        ) == 0
        for config_path in find_one(out, "config.json"):
            echoed = json.loads(config_path.read_text())
            assert echoed["lr"]["mode"] == "fixed"


class TestParetoCommand:
    def test_duplicate_records_both_retained(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=20))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        rec = find_one(tmp_path / "a", "record.json")[0]
        dup = tmp_path / "dup.json"
        dup.write_text(rec.read_text())
        capsys.readouterr()
        assert main(["pareto", str(rec), str(dup), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("non-dominated:") == 2

    def test_dominated_record_listed(self, tmp_path, capsys):
        # c=1 descends the retain loss only: it retains perfectly but never
        # forgets, so the balanced run dominates it on the forget axis only;
        # construct a clearly dominated artificial record instead
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.75}, steps=400))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        rec_path = find_one(tmp_path / "a", "record.json")[0]
        doc = json.loads(rec_path.read_text())
        doc["final"]["loss_retain"] += 1.0   # strictly worse retain
        doc["final"]["loss_forget"] -= 0.5   # strictly worse forget
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["pareto", str(rec_path), str(worse), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert f"dominated: {worse}" in printed
        assert len((tmp_path / "pareto.csv").read_text().splitlines()) == 2

    def test_a_tag_with_a_comma_stays_one_cell(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=20))
        runs = tmp_path / "pc" / "a,b"
        assert main(["run", "--config", cfg, "--out", str(runs)]) == 0
        (rec,) = find_one(runs, "record.json")
        assert main(["pareto", str(runs / "*" / "record.json"), "--out", str(tmp_path)]) == 0
        rows = csv_rows(tmp_path / "pareto.csv")
        assert [row[0] for row in rows] == ["tag", str(rec)]
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_unreadable_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["pareto", str(bad), "--out", str(tmp_path)]) == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_final_loss_exits_2(self, tmp_path, capsys):
        # at 512 steps the run exits 0 with final losses that overflowed to inf
        doc = quad_doc({"kind": "ga"}, steps=512, lr={"mode": "fixed", "eta": 1.0}, theta0=[2.0, 1.0])
        rec = one_record(tmp_path, doc)
        assert json.loads(rec.read_text())["final"]["loss_retain"] is None
        capsys.readouterr()
        out = tmp_path / "pareto"
        assert main(["pareto", str(rec), "--out", str(out)]) == 2
        assert f"config error: {rec}: pareto point losses must be finite" in capsys.readouterr().err
        assert not (out / "pareto.csv").exists()


class TestFinetuneAndReport:
    def test_finetune_prints_evaluation_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        doc = {
            "method": {"kind": "ngdiff"},
            "lr": {"mode": "auto"},
            "steps": 10,
            "batch_size": 32,
            "seeds": {"data": 0, "init": 1, "method": 2},
            "problem": {
                "kind": "gaussian",
                "classes": 3, "per_class": 40, "dim": 4, "separation": 4.0,
                "forget_class": 0, "hidden": [8],
                "finetune_steps": 150, "finetune_eta": 0.5,
            },
        }
        cfg = write_config(tmp_path / "cfg.json", doc)
        monkeypatch.chdir(tmp_path)
        assert main(["finetune", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("no-unlearn: acc_retain=") and "loss_forget=" in out
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_a_finetuned_model_whose_evaluation_overflows_exits_3(self, tmp_path, capsys):
        # one finetune step of eta 1e307 stays finite, and the evaluation of its model does not
        doc = json.loads((CONFIGS / "ngdiff_gaussian.json").read_text())
        doc["problem"].update(finetune_steps=1, finetune_eta=1e307)
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["finetune", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite value at step 1: non-finite cross-entropy\n"

    @pytest.mark.parametrize("command", ["report", "pareto"])
    @pytest.mark.parametrize(
        "key, value",
        [("trace", 5), ("final", []), ("forward_passes", [1]), ("config", []), ("config.method", "gd")],
    )
    def test_malformed_record_exits_2(self, tmp_path, capsys, command, key, value):
        rec = one_record(tmp_path, quad_doc({"kind": "gd"}, steps=5))
        doc = json.loads(rec.read_text())
        *parents, last = key.split(".")
        section = doc
        for part in parents:
            section = section[part]
        section[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        out = ["--out", str(tmp_path / "pareto")] if command == "pareto" else []
        assert main([command, str(bad), *out]) == 2
        assert f"config error: {bad}: unreadable record: " in capsys.readouterr().err
        assert not (tmp_path / "pareto").exists()

    @pytest.mark.parametrize("command", ["report", "pareto"])
    @pytest.mark.parametrize("rows", [0, 1, 1800], ids=["empty", "one-row", "doubled"])
    def test_trace_of_another_length_than_the_steps_exits_2(self, tmp_path, capsys, command, rows):
        # the shipped quad config runs 900 steps, so its record holds 900 rows
        rec = one_record(tmp_path, json.loads((CONFIGS / "gdiff_quad.json").read_text()))
        doc = json.loads(rec.read_text())
        doc["trace"] = (doc["trace"] * 2)[:rows]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        out = ["--out", str(tmp_path / "pareto")] if command == "pareto" else []
        assert main([command, str(bad), *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: {bad}: unreadable record: record trace has {rows} rows for 900 steps\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "pareto").exists()

    @pytest.mark.parametrize("command", ["report", "pareto"])
    def test_deeply_nested_record_exits_2(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        out = ["--out", str(tmp_path / "pareto")] if command == "pareto" else []
        assert main([command, str(deep), *out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {deep}: unreadable record: maximum recursion")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_run_and_report_lines_share_the_final_metrics(self, tmp_path, capsys):
        rec = one_record(tmp_path, small_gauss_doc({"kind": "ngdiff"}))
        run_line = capsys.readouterr().out
        assert main(["report", str(rec)]) == 0
        report_line = capsys.readouterr().out
        segment = " ".join(f"{name}=[0-9.]+" for name in EvalResult._fields)
        found = [re.findall(f" ({segment}) ", line) for line in (run_line, report_line)]
        assert len(found[0]) == 1 and found[0] == found[1]
        assert json.loads(rec.read_text())["final"].keys() == set(EvalResult._fields)

    def test_report_round_trips_records(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "ngdiff"}, steps=30, lr={"mode": "auto"}, theta0=[0.5, 1.0]))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rec_path = find_one(tmp_path / "out", "record.json")[0]
        record_from_json(rec_path.read_text())  # re-parses and re-validates
        capsys.readouterr()
        assert main(["report", str(rec_path)]) == 0
        out = capsys.readouterr().out
        assert "method=ngdiff" in out
        assert "overhead=1.0667" in out


class TestOutPath:
    """``--out`` naming an existing file is an argument error, never a traceback."""

    @pytest.mark.parametrize("command", ["run", "sweep", "pareto"])
    @pytest.mark.parametrize("under", [False, True])
    def test_file_as_out_exits_2(self, tmp_path, capsys, command, under):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        record = str(one_record(tmp_path, quad_doc({"kind": "gd"}, steps=5)))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "sub" if under else blocker)
        argv = {
            "run": ["run", "--config", cfg, "--out", out],
            "sweep": ["sweep", "--config", cfg, "--out", out, "--param", "c", "--values", "0.6"],
            "pareto": ["pareto", record, "--out", out],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --out {out}: cannot create directory")
        assert captured.out == ""
        assert blocker.read_text() == ""


    @pytest.mark.parametrize("artifact", ["config.json", "trace.csv", "record.json"])
    def test_directory_as_run_artifact_exits_2_before_the_loop(
        self, tmp_path, capsys, monkeypatch, artifact
    ):
        doc = quad_doc({"kind": "gd"}, steps=5)
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = str(tmp_path / "out")
        blocked = Path(out) / ngdiff.engine.run_name(ngdiff.engine.config_from_dict(doc)) / artifact
        blocked.mkdir(parents=True)
        monkeypatch.setattr(ngdiff.cli, "run_unlearning", None)  # the loop must not start
        assert main(["run", "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out}: cannot write {blocked}: Is a directory\n"
        assert captured.out == ""
        assert [p.name for p in blocked.parent.iterdir()] == [artifact]

    def test_directory_as_pareto_csv_exits_2(self, tmp_path, capsys):
        record = str(one_record(tmp_path, quad_doc({"kind": "gd"}, steps=5)))
        out = str(tmp_path / "p")
        (tmp_path / "p" / "pareto.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["pareto", record, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out}: cannot write {out}/pareto.csv: Is a directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("artifact", ["config.json", "trace.csv", "record.json"])
    def test_dangling_symlink_as_run_artifact_exits_2(self, tmp_path, capsys, artifact):
        doc = quad_doc({"kind": "gd"}, steps=5)
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = str(tmp_path / "out")
        link = Path(out) / ngdiff.engine.run_name(ngdiff.engine.config_from_dict(doc)) / artifact
        link.parent.mkdir(parents=True)
        link.symlink_to(tmp_path / "missing" / artifact)
        assert main(["run", "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out}: cannot write {link}: No such file or directory\n"
        assert captured.out == ""

    def test_dangling_symlink_as_pareto_csv_exits_2(self, tmp_path, capsys):
        record = str(one_record(tmp_path, quad_doc({"kind": "gd"}, steps=5)))
        out = tmp_path / "p"
        out.mkdir()
        (out / "pareto.csv").symlink_to(tmp_path / "missing" / "pareto.csv")
        capsys.readouterr()
        assert main(["pareto", record, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: cannot write {out}/pareto.csv: No such file or directory\n"
        )

    def test_dangling_symlink_as_sweep_summary_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "sweep_summary.csv").symlink_to(tmp_path / "missing" / "sweep_summary.csv")
        argv = ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: cannot write {out}/sweep_summary.csv: No such file or directory\n"
        )

    def test_directory_as_sweep_summary_exits_2_before_any_child(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=5))
        out = tmp_path / "sweep"
        (out / "sweep_summary.csv").mkdir(parents=True)
        argv = ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --out {out}: cannot write {out}/sweep_summary.csv: Is a directory\n"
        )
        assert captured.out == "" and [p.name for p in out.iterdir()] == ["sweep_summary.csv"]

    @pytest.mark.parametrize(
        "artifact", ["config.json", "trace.csv", "record.json", "sweep_summary.csv", "pareto.csv"]
    )
    def test_a_write_that_fails_midway_leaves_the_old_file_whole(self, tmp_path, capsys, monkeypatch, artifact):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.75}, steps=5))
        out = tmp_path / "out"
        argv = ["run", "--config", cfg, "--out", str(out)]
        if artifact == "sweep_summary.csv":
            argv = ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,0.8"]
        elif artifact == "pareto.csv":
            record = str(one_record(tmp_path, quad_doc({"kind": "gd"}, steps=5)))
            argv = ["pareto", record, "--out", str(out)]
        assert main(argv) == 0
        (path,) = out.rglob(artifact)
        whole = path.read_bytes()
        real_open = builtins.open

        class Torn:
            """A file that takes half of the first text written to it, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return Torn(fh) if "w" in mode and artifact in Path(file).name else fh

        capsys.readouterr()
        monkeypatch.setattr(builtins, "open", torn_open)
        code = main(argv)
        monkeypatch.setattr(builtins, "open", real_open)
        assert code == 2
        assert capsys.readouterr().err.endswith(f"--out {out}: cannot write {path}: No space left on device\n")
        assert path.read_bytes() == whole
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("artifact", ["config.json", "record.json"])
    def test_read_only_artifact_exits_2_and_is_kept(self, tmp_path, capsys, monkeypatch, artifact):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        out = tmp_path / "out"
        argv = ["run", "--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        (path,) = out.rglob(artifact)
        whole = path.read_bytes()
        path.chmod(0o444)
        if os.geteuid() == 0:  # root may write any file: answer as the file's mode answers others
            monkeypatch.setattr(os, "access", lambda p, mode: os.stat(p).st_mode & 0o222 != 0)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --out {out}: cannot write {path}: Permission denied\n"
        assert path.read_bytes() == whole

    def test_directory_as_child_artifact_fails_that_value_alone(self, tmp_path, capsys):
        doc = quad_doc({"kind": "gdiff", "c": 0.5}, steps=5)
        cfg = write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "sweep"
        blocked_doc = quad_doc({"kind": "gdiff", "c": 0.6}, steps=5)
        blocked = out / ngdiff.engine.run_name(ngdiff.engine.config_from_dict(blocked_doc))
        (blocked / "record.json").mkdir(parents=True)
        argv = ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,0.8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: value 0.6: --out {out}: cannot write {blocked}/record.json: Is a directory\n"
        )
        assert len(captured.out.splitlines()) == 1  # the run line of 0.8
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary] == ["c", "0.8"]


class TestProcessEntry:
    """``python -m ngdiff.cli`` freezes the objects of its imports; ``main`` never does."""

    def test_main_leaves_the_freeze_count(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert gc.get_freeze_count() == before

    def test_module_run_prints_the_in_process_line(self, tmp_path, capsys):
        cfg = str(CONFIGS / "gdiff_quad.json")
        proc = subprocess.run(
            [sys.executable, "-m", "ngdiff.cli", "run", "--config", cfg, "--out", str(tmp_path / "a")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_forked_sweep_prints_each_line_once_and_loads_no_pool(self, tmp_path):
        # stdout is a pipe, so block-buffered: a child must not print the parent's buffer again
        code = (
            "import atexit, runpy, sys\n"
            "pool = ('concurrent', 'multiprocessing')\n"
            "loaded = lambda: [m for m in sys.modules if m.split('.')[0] in pool]\n"
            "atexit.register(lambda: sys.stderr.write(repr(loaded())))\n"
            "sys.argv = ['ngdiff', *sys.argv[1:]]\n"
            "print('start')\n"
            "runpy.run_module('ngdiff.cli', run_name='__main__')\n"
        )
        methods = ["gd", "ga", "lossnorm", "ngdiff"]
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc({"kind": "ngdiff"}))
        proc = subprocess.run(
            [sys.executable, "-c", code, "sweep", "--config", cfg, "--out", str(tmp_path / "s"),
             "--param", "method", "--values", ",".join(methods), "--jobs", "2"],
            env={k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"},
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "[]")
        assert sorted(line.split("_")[0] for line in proc.stdout.splitlines()) == sorted(["start", *methods])

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "method", "--values", "gd,ngdiff", "--jobs", "2"]])
    def test_overflowing_finetune_prints_no_numpy_warning(self, tmp_path, command):
        # a finetune step of 1e200 leaves finite weights whose sums of squares
        # overflow; at --jobs 2 a forked child steps from them
        doc = json.loads((CONFIGS / "ngdiff_gaussian.json").read_text())
        doc["problem"]["finetune_eta"] = 1e200
        doc["steps"] = 3
        cfg = write_config(tmp_path / "cfg.json", doc)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "ngdiff.cli", *command,
             "--config", cfg, "--out", str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        for record in find_one(tmp_path / "out", "record.json"):
            assert record_from_json(record.read_text()).final.loss_retain > 1e100

    def test_cli_import_loads_no_cli_only_module(self):
        # dataclasses would mean generated code at import; the others load where they are used
        code = (
            "import sys\n"
            "import numpy, json, argparse, hashlib\n"
            "before = set(sys.modules)\n"
            "import ngdiff.cli\n"
            "lazy = {'dataclasses', 'traceback', 'glob', 'signal', 'concurrent.futures', 'multiprocessing'}\n"
            "print(sorted(lazy & (set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[]\n"

    def test_module_entry_freezes_before_main(self):
        # runs the module as -m does and reads the freeze count as the process exits
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['ngdiff', '--help']\n"
            "runpy.run_module('ngdiff.cli', run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "frozen True"


class TestStationarityResidual:
    """``report`` prints the Pareto-stationarity residual of each record's last trace row."""

    @staticmethod
    def exact(g_r, g_f):
        """min over lambda in [0, 1] of |lambda g_r - (1 - lambda) g_f|, from the vectors."""
        u, w = np.asarray(g_r, dtype=float), -np.asarray(g_f, dtype=float)
        lam = float(np.clip(w @ (w - u) / ((u - w) @ (u - w)), 0.0, 1.0))
        return float(np.linalg.norm(w + lam * (u - w))), min(np.linalg.norm(u), np.linalg.norm(w))

    @pytest.mark.parametrize("method", [{"kind": "ngdiff"}, {"kind": "gdiff", "c": 0.75}, {"kind": "ga"}])
    @pytest.mark.parametrize("steps", [1, 4])
    def test_the_residual_matches_the_vectors_at_the_last_row(self, tmp_path, capsys, method, steps):
        doc = quad_doc(method, steps=steps, theta0=[0.5, 1.0])
        record = one_record(tmp_path, doc)
        # the last row is taken where the run stood before its last update
        before = [0.5, 1.0] if steps == 1 else ngdiff.engine.run_unlearning(
            ngdiff.engine.config_from_dict({**doc, "steps": steps - 1})).final_params
        capsys.readouterr()
        assert main(["report", str(record)]) == 0
        fields = dict(item.split("=") for item in capsys.readouterr().out.split()[1:])
        res, scale = self.exact(np.asarray(before), np.asarray(before) - [1.0, 0.0])
        assert float(fields["pareto_res"]) == pytest.approx(res, rel=1e-3)
        assert float(fields["pareto_res_rel"]) == pytest.approx(res / scale, rel=1e-3)

    @pytest.mark.parametrize(
        "norms, expected",
        [((3.0, 4.0, -1.0), (3.0, 1.0)),  # g_f = -4/3 g_r: the hull's nearest point is g_r
         ((2.0, 1.0, 1.0), (0.0, 0.0)),  # parallel: a stationary point
         ((1.0, 1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5))),
         # norms whose squares overflow: the hull's nearest point is the mean of unit vectors 60 degrees apart
         ((1e200, 1e200, -0.5), (math.sqrt(0.75) * 1e200, math.sqrt(0.75))),
         ((3e200, 4e200, -1.0), (3e200, 1.0)),
         ((math.inf, 1.0, 0.5), (math.nan, math.nan)),
         ((0.0, 2.0, math.nan), (0.0, math.nan)),
         ((math.nan, math.nan, math.nan), (math.nan, math.nan))],  # an NPO row
    )
    def test_closed_form_cases(self, norms, expected):
        res, rel = ngdiff.engine.stationarity_residual(*norms)
        assert res == pytest.approx(expected[0], nan_ok=True, abs=1e-15)
        assert rel == pytest.approx(expected[1], nan_ok=True, abs=1e-15)

    def test_an_npo_record_reports_nan(self, tmp_path, capsys):
        record = one_record(tmp_path, small_gauss_doc({"kind": "npo", "beta": 1.0}))
        capsys.readouterr()
        assert main(["report", str(record)]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("pareto_res=nan pareto_res_rel=nan")
