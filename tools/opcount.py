"""Count the bytecode ops and Python calls per step of the shipped quad config's loop.

Run from anywhere inside the repository:

    python3 tools/opcount.py

The loop of ``configs/gdiff_quad.json`` runs in this process, with this
checkout's ``src/`` first on the import path, once for ``STEPS`` steps and
once for twice as many, under a ``sys.settrace`` tracer that counts every
opcode executed and every Python frame entered.  The difference of the two
counts, divided by ``STEPS``, is the cost of one step with the run's setup
and its record cancelled out; it prints as ``ops_per_step <n>`` and
``calls_per_step <n>``.  Calls into C (numpy, builtins) are not frames and
count only as the ops that make them.

The same count over the lockstep group of the 12 ``c`` values that pass 0
of the benchmark's ``quad_sweep`` workload (seed 0) sweeps, divided by the
group's size too, prints as ``group_ops_per_run_step <n>`` and
``group_calls_per_run_step <n>``: the Python cost of one run's step when
the group shares its direction formula and update.

The counts are exact and the same on every run, unlike a time, so they show
per-step Python creeping into a loop whose step takes microseconds, such as
the quad pair's.  They depend on the interpreter's bytecode, so compare them
on one Python version only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py; imports no ngdiff)
from ngdiff.cli import _sweep_config  # noqa: E402
from ngdiff.engine import config_from_dict, run_unlearning  # noqa: E402

DEFAULT_CONFIG = ROOT / "configs" / "gdiff_quad.json"
STEPS = 100


def sweep_group() -> list[dict]:
    """The config documents of the ``c`` values that ``quad_sweep`` pass 0 (seed 0) sweeps."""
    (invocation,) = workloads.plan_pass("quad_sweep", 0, 0, "out")
    argv = invocation.argv
    doc = json.loads((ROOT / argv[argv.index("--config") + 1]).read_text())
    values = argv[argv.index("--values") + 1].split(",")
    return [_sweep_config(doc, "c", value) for value in values]


def traced_counts(docs, steps: int) -> tuple[int, int]:
    """(opcodes, Python calls) of one lockstep run of the ``docs`` (one document
    or a list), cut to ``steps`` steps."""
    cfgs = [config_from_dict({**doc, "steps": steps}) for doc in ([docs] if isinstance(docs, dict) else docs)]
    ops = calls = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def tracer(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(tracer)
    try:
        run_unlearning(cfgs[0] if len(cfgs) == 1 else cfgs)
    finally:
        sys.settrace(None)
    return ops, calls


def per_step(docs, steps: int) -> tuple[float, float]:
    """Bytecode ops and Python calls per step and run of the loop of ``docs``
    (one document or a lockstep group's list)."""
    runs = 1 if isinstance(docs, dict) else len(docs)
    ops_1, calls_1 = traced_counts(docs, steps)
    ops_2, calls_2 = traced_counts(docs, 2 * steps)
    return (ops_2 - ops_1) / (steps * runs), (calls_2 - calls_1) / (steps * runs)


def main() -> int:
    ops, calls = per_step(json.loads(DEFAULT_CONFIG.read_text()), STEPS)
    print(f"ops_per_step {ops:.1f}")
    print(f"calls_per_step {calls:.1f}")
    ops, calls = per_step(sweep_group(), STEPS)
    print(f"group_ops_per_run_step {ops:.1f}")
    print(f"group_calls_per_run_step {calls:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
