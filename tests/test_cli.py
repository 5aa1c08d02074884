"""Command-line interface: exit codes, artifacts, determinism, dominance."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngdiff.engine
from ngdiff.cli import main
from ngdiff.engine import record_from_json
from ngdiff.objectives import QuadPairProblem, lsp_minimizer


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


def run_dirs(root):
    return sorted(p for p in root.iterdir() if p.is_dir())


def find_one(root, name):
    hits = sorted(root.rglob(name))
    assert hits, f"no {name} under {root}"
    return hits


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
        src = Path(ngdiff.engine.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "ngdiff.cli",
             "run", "--config", cfg, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
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

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", [1, 2])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed-data", "1"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

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
        # pool children share one stdout; unbuffered, a line written in two
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

    def test_bad_param_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gd"}, steps=5))
        assert main(
            ["sweep", "--config", cfg, "--out", str(tmp_path), "--param", "zeta", "--values", "1"]
        ) == 2

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

    def test_non_object_section_in_sweep_exits_2(self, tmp_path, capsys):
        doc = quad_doc({"kind": "gd"}, steps=5)
        doc["lr"] = None
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--param", "eta", "--values", "0.1"]
        ) == 2
        assert "lr: must be an object" in capsys.readouterr().err

    def test_unexpected_child_error_is_a_failed_value(self, tmp_path, capsys, monkeypatch):
        import ngdiff.cli

        real = ngdiff.cli.run_unlearning

        def flaky(cfg, *args, **kwargs):
            if cfg.method.c == 0.75:
                raise RuntimeError("disk on fire")
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(ngdiff.cli, "run_unlearning", flaky)
        cfg = write_config(tmp_path / "cfg.json", quad_doc({"kind": "gdiff", "c": 0.5}, steps=20))
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "c", "--values", "0.6,0.75,0.9", "--jobs", "1"]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "value 0.75" in err and "disk on fire" in err
        assert "Traceback" not in err
        listed = [line.split(",")[0] for line in (out / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert listed == ["0.6", "0.9"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "param, values, method",
        [("method", "ngdiff,gd,rlw", {"kind": "ngdiff"}), ("beta", "0.5,1.0", {"kind": "npo", "beta": 1.0})],
    )
    def test_children_match_standalone_runs(self, tmp_path, capsys, param, values, method, jobs):
        cfg = write_config(tmp_path / "cfg.json", small_gauss_doc(method))
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", cfg, "--out", str(out), "--param", param, "--values", values,
             "--jobs", jobs]
        ) == 0
        children = run_dirs(out)
        assert len(children) == len(values.split(","))
        for child in children:
            alone = tmp_path / "alone"
            assert main(["run", "--config", str(child / "config.json"), "--out", str(alone)]) == 0
            for artifact in ("config.json", "record.json", "trace.csv"):
                assert (child / artifact).read_bytes() == (alone / child.name / artifact).read_bytes()

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

    def test_unreadable_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["pareto", str(bad), "--out", str(tmp_path)]) == 2
        assert "bad.json" in capsys.readouterr().err


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
