"""Byte-compare the artifacts of this checkout against a git revision.

Run from anywhere inside the repository:

    python3 tools/abcompare.py --against <rev> [--work DIR]

``<rev>`` is extracted with ``git archive`` into a temporary directory, so
the repository's ``.git`` is only read.  The same fixed set of ``ngdiff``
invocations then runs on both trees, each in a fresh interpreter with that
tree's ``src/`` on ``PYTHONPATH`` and its ``configs/``: the ``gauss_run``
pass 0 and every ``gauss_sweep`` child of workload seeds 0 and 7127, one
``quad_sweep`` pass, a quad method sweep over the seven combiners the CLI
can sweep, the criterion-9 coefficient sweep and a quad run that aborts.
The argument lists of the benchmark workloads come from
``perfbench/workloads.py``, so they stay the ones the benchmark times.

Every file either side writes is printed as ``identical``, ``differing`` or
``missing in <side>``; every invocation whose exit code or error output
differs is printed too.  The exit status is 0 when all artifacts are
identical and all exit codes and error outputs equal, 1 otherwise, and 2
when ``<rev>`` cannot be extracted or ``--work`` is not empty.  With
``--work`` the extracted tree and both sides' outputs are kept there.

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


def invocations(out: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every ``ngdiff`` call, writing under ``out``.

    The argument lists do not depend on the tree they run on, apart from
    the relative ``configs/`` paths, which each tree resolves itself.
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
    calls.append(("criterion9", (
        "sweep", "--config", str(out / "criterion9.json"), "--out", str(out / "criterion9"),
        "--param", "c", "--values", CRITERION_9_VALUES,
    )))
    calls.append(("quad_abort", (
        "run", "--config", str(out / "abort.json"), "--out", str(out / "quad_abort"),
    )))
    return calls


def run_side(tree: Path, out: Path) -> dict[str, tuple[int, str]]:
    """Run every invocation with ``tree``'s program; (exit code, stderr) by name."""
    out.mkdir(parents=True)
    for name, doc in (("criterion9.json", CRITERION_9_CONFIG), ("abort.json", ABORT_CONFIG)):
        (out / name).write_text(json.dumps(doc, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    results = {}
    for name, argv in invocations(out):
        # numpy's overflow warnings quote the source line, which may move between trees
        proc = subprocess.run(
            [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "ngdiff.cli", *argv],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        # messages may name the side's own paths, which differ by construction
        stderr = proc.stderr.replace(str(tree), "<tree>").replace(str(out), "<out>")
        results[name] = (proc.returncode, stderr)
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
            differing_calls += 1
        elif base[1] != change[1]:
            print(f"error output differs {name} (exit code {base[0]} on both)")
            differing_calls += 1
    differing = sum(status != "identical" for _, status in artifacts)
    print(
        f"{len(artifacts)} artifacts, {differing} not identical; "
        f"{len(calls)} invocations, {differing_calls} with differing exit code or error output"
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
