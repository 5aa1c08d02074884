"""Byte-compare the artifacts of this checkout against a git revision.

Run from anywhere inside the repository:

    python3 tools/abcompare.py --against <rev> [--work DIR]

``<rev>`` is extracted with ``git archive`` into a temporary directory, so
the repository's ``.git`` is only read.  The same fixed set of ``ngdiff``
invocations then runs on both trees, each in a fresh interpreter with that
tree's ``src/`` on ``PYTHONPATH`` and its ``configs/``: the ``gauss_run``
pass 0 and every ``gauss_sweep`` child of workload seeds 0 and 7127, one
``quad_sweep`` pass, a quad method sweep over the seven combiners the CLI
can sweep, ``ngdiff report`` and ``ngdiff pareto`` over that sweep's
records, the criterion-9 coefficient sweep, a quad run that aborts, a
Gaussian method sweep whose shared finetune aborts, a small Gaussian NPO
``beta`` sweep whose children run in one process on one shared start (and
so one graph), an ``ngdiff finetune``
of the shipped Gaussian config, three small Gaussian runs whose shapes
take the kernel's plain-``sum`` branches (9 classes, a hidden layer of
width 1, minibatches of 1 row), two runs of the shipped Gaussian config at
other minibatch sizes (``BATCH_CONFIGS``), an ``eta`` sweep of it whose
loop aborts at its first update (``loop_abort``), two ``--jobs 1`` sweeps
of it whose children step in lockstep in one process (``lockstep_method``,
every method the sweep can set up, and ``lockstep_abort``, whose ``1e308``
child aborts and leaves the ``0.01`` child stepping on), two more ``--jobs
1`` ``eta`` sweeps whose ``1e308`` child aborts while ``1e3`` and ``0.01``
finish (``ABORT_SWEEPS``: an NPO copy of the shipped config, which fails
in its step-10 evaluation, and its ``batch_size`` 400 copy, which takes two
passes per step and fails at step 1 in layer 1) and the config-echo
corpus: 1-step runs that cover every valid way to write a config field
(``ECHO_CONFIGS``).
The argument lists of the benchmark workloads come from
``perfbench/workloads.py``, so they stay the ones the benchmark times.

Every file either side writes is printed as ``identical``, ``differing`` or
``missing in <side>``; every invocation whose exit code, standard output or
error output differs is printed too.  A sweep's children print in the order
they finish, so the output lines of an invocation with ``--jobs`` above 1 are
compared sorted.  The exit status is 0 when all artifacts are identical and
all exit codes and outputs equal, 1 otherwise, and 2 when ``<rev>`` cannot
be extracted or ``--work`` is not empty.  With ``--work`` the extracted tree
and both sides' outputs are kept there.

The comparison is against a revision, not against stored digests: numpy's
OpenBLAS picks its kernels by CPU, so the bits of a record may depend on the
machine, while both sides of one comparison run on the same machine.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py; imports no ngdiff)

SIDES = ("base", "change")
WORKLOAD_SEEDS = (0, workloads.HELD_OUT_SEED)
QUAD_METHODS = "gd,ga,lossnorm,rlw,pcgrad,imtlg,ngdiff"
# report and pareto read the quad method sweep's records by a glob that
# ngdiff expands; they run in the side's output directory, so the record
# paths they print and write into pareto.csv are the same on both sides
QUAD_RECORDS = "quad_method/*/record.json"
RECORD_COMMANDS = ("report", "pareto")

# the configuration and coefficients of acceptance criterion 9
CRITERION_9_CONFIG = {
    "method": {"kind": "gdiff", "c": 0.5},
    "lr": {"mode": "fixed", "eta": 0.05},
    "steps": 300,
    "batch_size": 32,
    "eval_every": 100,
    "seeds": {"data": 0, "init": 1000, "method": 2000},
    "problem": {"kind": "gaussian"},
}
CRITERION_9_VALUES = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"

# ga with eta 1 from theta0 (2, 1) diverges and exits 3 at step 512
ABORT_CONFIG = {
    "method": {"kind": "ga"},
    "lr": {"mode": "fixed", "eta": 1.0},
    "steps": 3000,
    "seeds": {"data": 0, "init": 0, "method": 0},
    "problem": {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0], "theta0": [2.0, 1.0]},
}

# the finetune overflows at its step 1, so every child of a sweep falls back
# to finetuning on its own and exits 3; "bogus" is a config error (exit 2)
FINETUNE_ABORT_CONFIG = {
    "method": {"kind": "ngdiff"},
    "lr": {"mode": "auto"},
    "steps": 20,
    "seeds": {"data": 0, "init": 1000, "method": 2000},
    "problem": {"kind": "gaussian", "finetune_eta": 1e308},
}
FINETUNE_ABORT_VALUES = "ngdiff,gd,bogus"

# a --jobs 1 beta sweep: every child takes the parent's start object itself
NPO_SWEEP_CONFIG = {
    "method": {"kind": "npo", "beta": 1.0},
    "lr": {"mode": "auto"},
    "steps": 60,
    "eval_every": 10,
    "seeds": {"data": 5, "init": 1005, "method": 2005},
    "problem": {"kind": "gaussian", "per_class": 60, "finetune_steps": 100},
}
NPO_SWEEP_VALUES = "0.5,1.0,2.0"

# Gaussian runs over shapes where the kernel's reductions fall back to
# numpy's sum: 9 classes (row sums), a width-1 layer (column sums) and
# 1-row minibatches; 300 or more pooled rows keep the finetune on the fast forms
def _fallback_config(problem: dict, **top) -> dict:
    return {
        "method": {"kind": "ngdiff"},
        "lr": {"mode": "auto"},
        "steps": 60,
        "eval_every": 10,
        "seeds": {"data": 3, "init": 1003, "method": 2003},
        "problem": {"kind": "gaussian", "per_class": 100, "finetune_steps": 100, **problem},
        **top,
    }


FALLBACK_CONFIGS = {
    "fallback_classes9": _fallback_config({"classes": 9, "dim": 9}),
    "fallback_hidden1": _fallback_config({"per_class": 300, "hidden": [1]}),
    "fallback_batch1": _fallback_config({}, batch_size=1),
}

# The shipped Gaussian config (600 retain and 300 forget rows) at other
# minibatch sizes: at 200 both minibatches have 200 rows, so the stacked
# pass of a step takes the reductions for 128 rows and above; at 400 the
# forget minibatch has 300 rows, so each minibatch runs a pass of its own
_GAUSS = json.loads((ROOT / workloads.GAUSS_CONFIG).read_text())
BATCH_CONFIGS = {f"gauss_batch{n}": {**_GAUSS, "batch_size": n} for n in (200, 400)}

# eta 1e308 overflows the first layer at step 1, so the sweep's one child exits 3
LOOP_ABORT_VALUES = "1e308"
# --jobs 1 sweeps of the shipped Gaussian config whose children form one
# lockstep group in the parent process: every method the sweep can set up,
# and two eta values of which 1e308 leaves the group at step 1
LOCKSTEP_METHODS = ",".join(workloads.SWEEP_METHODS)
LOCKSTEP_ABORT_VALUES = "1e308,0.01"
# --jobs 1 eta sweeps of one lockstep group in which one run aborts and two
# finish, each by the name of the config it sweeps: the NPO copy of the shipped
# config aborts in its step-10 evaluation, and its batch_size 400 copy, whose
# steps take two passes, at step 1 in layer 1
ABORT_SWEEPS = {"npo_eta_abort": "npo_gauss", "batch400_eta_abort": "gauss_batch400"}
ABORT_SWEEP_VALUES = "1e308,1e3,0.01"
NPO_GAUSS_CONFIG = {**_GAUSS, "method": {"kind": "npo", "beta": 1}}

# The config-echo corpus: the valid surface of the config parser, one 1-step
# run each.  Every combiner kind on the quad pair with its optional fields
# present (integer literals in float fields, integral floats in int fields),
# absent, and null where null is allowed; plus one tiny Gaussian NPO run.
ECHO_KINDS = ("gd", "ga", "gdiff", "lossnorm", "rlw", "pcgrad", "imtlg", "ngdiff", "scheduled_gdiff")
_ECHO_METHODS = {
    "gdiff": ({"c": 1}, {"c": 0.5}),
    "scheduled_gdiff": ({"c": 0.5, "amplitude": 1, "decay": 0.5}, {"c": 0.5, "decay": 0.9}),
}


def _echo_configs() -> dict:
    configs = {}
    for kind in ECHO_KINDS:
        present, required = _ECHO_METHODS.get(kind, ({}, {}))
        quad = {"kind": "quad_pair", "a": [0.0, 0.0], "b": [1.0, 0.0]}
        seeds = {"data": 0, "init": 0, "method": 0}
        configs[f"echo_{kind}_present"] = {
            "method": {"kind": kind, **present},
            "lr": {"mode": "auto", "eta": 1, "update_period": 1.0, "probe_epsilon": 0.001},
            "steps": 1.0,
            "batch_size": 32.0,
            "eval_every": 1.0,
            "seeds": {"data": 1.0, "init": 1e3, "method": 2.0},
            "problem": {**quad, "a": [0, 0], "b": [1, 0], "forget_kind": "bounded_exp", "theta0": [1, 1]},
        }
        configs[f"echo_{kind}_absent"] = {
            "method": {"kind": kind, **required}, "lr": {"mode": "auto"}, "steps": 1, "seeds": seeds,
            "problem": quad,
        }
        configs[f"echo_{kind}_null"] = {
            "method": {"kind": kind, **required}, "lr": {"mode": "auto", "eta": None}, "steps": 1,
            "seeds": seeds, "problem": {**quad, "theta0": None},
        }
    configs["echo_gaussian"] = {
        "method": {"kind": "npo", "beta": 1},
        "lr": {"mode": "fixed", "eta": 1},
        "steps": 1,
        "batch_size": 8.0,
        "eval_every": 1,
        "seeds": {"data": 3.0, "init": 4, "method": 5},
        "problem": {
            "kind": "gaussian", "classes": 3.0, "per_class": 10, "dim": 4, "separation": 4,
            "forget_class": 2.0, "hidden": [4.0], "finetune_steps": 0, "finetune_eta": 1,
        },
    }
    return configs


ECHO_CONFIGS = _echo_configs()


def invocations(out: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every ``ngdiff`` call, writing under ``out``.

    The argument lists do not depend on the tree they run on, apart from
    the relative ``configs/`` paths, which each tree resolves itself, and
    the relative paths of ``RECORD_COMMANDS``, which resolve in ``out``.
    """
    calls = []
    for seed in WORKLOAD_SEEDS:
        for workload in ("gauss_run", "gauss_sweep"):
            plan = workloads.plan_pass(workload, seed, 0, str(out / f"{workload}-seed{seed}"))
            calls += [(f"{workload}-seed{seed}#{i}", inv.argv) for i, inv in enumerate(plan)]
    plan = workloads.plan_pass("quad_sweep", 0, 0, str(out / "quad_sweep-seed0"))
    calls += [(f"quad_sweep-seed0#{i}", inv.argv) for i, inv in enumerate(plan)]
    calls.append(("quad_method", (
        "sweep", "--config", workloads.QUAD_CONFIG, "--out", str(out / "quad_method"),
        "--param", "method", "--values", QUAD_METHODS,
    )))
    calls.append(("quad_method_report", ("report", QUAD_RECORDS)))
    calls.append(("quad_method_pareto", ("pareto", QUAD_RECORDS, "--out", "quad_method_pareto")))
    calls.append(("criterion9", (
        "sweep", "--config", str(out / "criterion9.json"), "--out", str(out / "criterion9"),
        "--param", "c", "--values", CRITERION_9_VALUES,
    )))
    calls.append(("quad_abort", (
        "run", "--config", str(out / "abort.json"), "--out", str(out / "quad_abort"),
    )))
    calls.append(("finetune_abort", (
        "sweep", "--config", str(out / "finetune_abort.json"), "--out", str(out / "finetune_abort"),
        "--param", "method", "--values", FINETUNE_ABORT_VALUES, "--jobs", "2",
    )))
    calls.append(("npo_beta_sweep", (
        "sweep", "--config", str(out / "npo_beta_sweep.json"), "--out", str(out / "npo_beta_sweep"),
        "--param", "beta", "--values", NPO_SWEEP_VALUES, "--jobs", "1",
    )))
    calls.append(("finetune", ("finetune", "--config", workloads.GAUSS_CONFIG)))
    calls.append(("loop_abort", (
        "sweep", "--config", workloads.GAUSS_CONFIG, "--out", str(out / "loop_abort"),
        "--param", "eta", "--values", LOOP_ABORT_VALUES,
    )))
    calls.append(("lockstep_method", (
        "sweep", "--config", workloads.GAUSS_CONFIG, "--out", str(out / "lockstep_method"),
        "--param", "method", "--values", LOCKSTEP_METHODS, "--jobs", "1",
    )))
    calls.append(("lockstep_abort", (
        "sweep", "--config", workloads.GAUSS_CONFIG, "--out", str(out / "lockstep_abort"),
        "--param", "eta", "--values", LOCKSTEP_ABORT_VALUES, "--jobs", "1",
    )))
    for name, doc in ABORT_SWEEPS.items():
        calls.append((name, (
            "sweep", "--config", str(out / f"{doc}.json"), "--out", str(out / name),
            "--param", "eta", "--values", ABORT_SWEEP_VALUES, "--jobs", "1",
        )))
    for name in (*FALLBACK_CONFIGS, *BATCH_CONFIGS, *ECHO_CONFIGS):
        calls.append((name, ("run", "--config", str(out / f"{name}.json"), "--out", str(out / name))))
    return calls


def run_side(tree: Path, out: Path) -> dict[str, tuple[int, str, str]]:
    """Run every invocation with ``tree``'s program; (exit code, stdout, stderr) by name."""
    out.mkdir(parents=True)
    docs = {
        "criterion9": CRITERION_9_CONFIG,
        "abort": ABORT_CONFIG,
        "finetune_abort": FINETUNE_ABORT_CONFIG,
        "npo_beta_sweep": NPO_SWEEP_CONFIG,
        "npo_gauss": NPO_GAUSS_CONFIG,
        **FALLBACK_CONFIGS,
        **BATCH_CONFIGS,
        **ECHO_CONFIGS,
    }
    for name, doc in docs.items():
        (out / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    # buffered stdout: older trees print a run's line in two writes, which
    # sweep children sharing an unbuffered stdout can interleave
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(tree / "src")
    results = {}
    for name, argv in invocations(out):
        # numpy's overflow warnings quote the source line, which may move between trees
        proc = subprocess.run(
            [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "ngdiff.cli", *argv],
            cwd=out if argv[0] in RECORD_COMMANDS else tree,
            env=env, capture_output=True, text=True,
        )
        # messages may name the side's own paths, which differ by construction
        stdout, stderr = (
            text.replace(str(tree), "<tree>").replace(str(out), "<out>")
            for text in (proc.stdout, proc.stderr)
        )
        if "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) > 1:
            stdout = "".join(sorted(stdout.splitlines(keepends=True)))
        results[name] = (proc.returncode, stdout, stderr)
    return results


def compare_outputs(base: Path, change: Path) -> list[tuple[str, str]]:
    """(path relative to the side, status) for every file under either side."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    base_files, change_files = files(base), files(change)
    results = []
    for rel in sorted(base_files | change_files):
        if rel not in change_files:
            status = "missing in change"
        elif rel not in base_files:
            status = "missing in base"
        elif (base / rel).read_bytes() == (change / rel).read_bytes():
            status = "identical"
        else:
            status = "differing"
        results.append((rel, status))
    return results


def verdict(artifacts: list[tuple[str, str]], calls: dict[str, tuple]) -> int:
    """Print one line per artifact and per differing invocation; the exit status."""
    for rel, status in artifacts:
        print(f"{status:<18} {rel}")
    differing_calls = 0
    for name, (base, change) in calls.items():
        if base[0] != change[0]:
            print(f"exit code differs   {name}: base {base[0]}, change {change[0]}")
        elif base[1] != change[1]:
            print(f"output differs       {name} (exit code {base[0]} on both)")
        elif base[2] != change[2]:
            print(f"error output differs {name} (exit code {base[0]} on both)")
        else:
            continue
        differing_calls += 1
    differing = sum(status != "identical" for _, status in artifacts)
    print(
        f"{len(artifacts)} artifacts, {differing} not identical; "
        f"{len(calls)} invocations, {differing_calls} with differing exit code, output or error output"
    )
    return 1 if differing or differing_calls or not artifacts else 0


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True
    )
    if archive.returncode != 0:
        raise ValueError(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def compare_against(rev: str, work: Path) -> int:
    base_tree = work / "base-tree"
    try:
        extract(rev, base_tree)
    except ValueError as exc:
        print(f"error: cannot extract {rev!r}: {exc}", file=sys.stderr)
        return 2
    trees = {"base": base_tree, "change": ROOT}
    codes = {side: run_side(trees[side], work / side) for side in SIDES}
    calls = {name: (codes["base"][name], codes["change"][name]) for name in codes["base"]}
    return verdict(compare_outputs(work / "base", work / "change"), calls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--work", help="empty or new directory that keeps the trees and outputs")
    args = parser.parse_args(argv)
    if args.work is None:
        with tempfile.TemporaryDirectory(prefix="abcompare-") as tmp:
            return compare_against(args.against, Path(tmp))
    work = Path(args.work)
    if work.exists() and any(work.iterdir()):
        print(f"error: --work {work} is not empty", file=sys.stderr)
        return 2
    return compare_against(args.against, work)


if __name__ == "__main__":
    sys.exit(main())
