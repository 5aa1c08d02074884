"""Correctness checks on the artifacts one invocation of ``ngdiff`` wrote.

Every expected run is one attempt.  A run fails when its invocation exited
non-zero, its ``record.json`` is missing or does not re-parse with
``engine.record_from_json``, its pass counters break the cost model, or (on
the quadratic pair) its final retain loss misses the closed form.  A sweep
also fails every run whose value is missing from ``sweep_summary.csv``.

The cost model the counters must meet exactly: a combiner run makes 2
forward and 2 backward passes per step, an NPO run 1 of each, and every
probe update event 2 probe forwards, so ``pass_overhead`` is exactly 32/30
for a combiner run with automatic step sizes (300 steps, an event every 10),
17/30 for NPO and 1 for a fixed step size.
"""

from __future__ import annotations

import filecmp
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Relative error allowed between a quadratic run's final retain loss and its
# value at the closed-form minimizer; 900 fixed-eta steps at c >= 0.6 reach it.
QUAD_REL_TOL = 1e-6


@dataclass
class Outcome:
    """Tally of one pass (or run) of checks, plus the quality figures seen."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    write_bytes: int = 0
    errors: list = field(default_factory=list)
    overheads: list = field(default_factory=list)
    retain_acc: list = field(default_factory=list)
    forget_acc: list = field(default_factory=list)
    quad_err: list = field(default_factory=list)
    run_dirs: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.steps += other.steps
        for name in ("errors", "overheads", "retain_acc", "forget_acc", "quad_err", "run_dirs"):
            getattr(self, name).extend(getattr(other, name))


def expected_counters(config: dict) -> tuple[int, int, int]:
    """(forward, backward, probe forward) passes the cost model predicts."""
    steps = int(config["steps"])
    per_step = 1 if config["method"]["kind"] == "npo" else 2
    lr = config["lr"]
    probes = 2 * math.ceil(steps / int(lr["update_period"])) if lr["mode"] == "auto" else 0
    return per_step * steps, per_step * steps, probes


def _check_record(ngdiff, run_dir: Path, out: Outcome) -> None:
    engine = ngdiff.engine
    try:
        record = engine.record_from_json((run_dir / "record.json").read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.fail(f"{run_dir}: record.json does not re-parse: {exc}")
        return
    fwd, bwd, probe = expected_counters(record.config)
    seen = (record.forward_passes, record.backward_passes, record.probe_forward_passes)
    if seen != (fwd, bwd, probe):
        out.fail(f"{run_dir}: pass counters {seen} != cost model {(fwd, bwd, probe)}")
        return
    overhead = engine.pass_overhead(record)
    model = float(Fraction(fwd + 2 * bwd + 2 * probe, 6 * record.steps))
    if overhead != model:
        out.fail(f"{run_dir}: pass_overhead {overhead!r} != {model!r}")
        return
    problem = record.config["problem"]
    if problem["kind"] == "quad_pair":
        quad = ngdiff.objectives.QuadPairProblem(problem["a"], problem["b"], problem["forget_kind"])
        theta = ngdiff.objectives.lsp_minimizer(quad, record.config["method"]["c"])
        expected = quad.retain_loss(theta)
        err = abs(record.final.loss_retain - expected) / abs(expected)
        out.quad_err.append(err)
        if not err <= QUAD_REL_TOL:
            out.fail(f"{run_dir}: final retain loss off the closed form by {err:.3g}")
            return
    else:
        out.retain_acc.append(record.final.acc_retain)
        out.forget_acc.append(record.final.acc_forget)
    out.overheads.append(overhead)
    out.steps += record.steps
    out.run_dirs.append(run_dir)


def _summary_values(out_dir: Path) -> set[str] | None:
    try:
        lines = (out_dir / "sweep_summary.csv").read_text().splitlines()
    except OSError:
        return None
    return {line.split(",", 1)[0] for line in lines[1:]}


def check_invocation(ngdiff, inv, code: int, root: Path) -> Outcome:
    """Check every run ``inv`` should have written under ``root / inv.out``."""
    out = Outcome(attempted=len(inv.runs))
    out_dir = root / inv.out
    if code != 0:
        for run in inv.runs:
            out.fail(f"{inv.out} [{run}]: exit code {code}")
        return out
    run_dirs = sorted(p.parent for p in out_dir.glob("*/record.json"))
    if len(run_dirs) != len(inv.runs):
        out.fail(f"{inv.out}: {len(run_dirs)} run directories, expected {len(inv.runs)}")
        out.attempted = max(out.attempted, len(run_dirs))
    for run_dir in run_dirs:
        _check_record(ngdiff, run_dir, out)
    if inv.argv[0] == "sweep":
        listed = _summary_values(out_dir)
        for run in inv.runs:
            if listed is None or run not in listed:
                out.fail(f"{inv.out}: value {run} missing from sweep_summary.csv")
    out.failed = min(out.failed, out.attempted)  # a run can fail more than one check
    return out


def identical_artifacts(first: Path, again: Path) -> str | None:
    """None when both run directories hold byte-identical record and trace."""
    for name in ("record.json", "trace.csv"):
        a, b = first / name, again / name
        if not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
            return f"{again / name} differs from {a}"
    return None
