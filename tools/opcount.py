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

from ngdiff.engine import config_from_dict, run_unlearning  # noqa: E402

DEFAULT_CONFIG = ROOT / "configs" / "gdiff_quad.json"
STEPS = 100


def traced_counts(doc: dict, steps: int) -> tuple[int, int]:
    """(opcodes, Python calls) of one run of ``doc`` cut to ``steps`` steps."""
    cfg = config_from_dict({**doc, "steps": steps})
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
        run_unlearning(cfg)
    finally:
        sys.settrace(None)
    return ops, calls


def per_step(doc: dict, steps: int) -> tuple[float, float]:
    """Bytecode ops and Python calls per step of ``doc``'s loop."""
    ops_1, calls_1 = traced_counts(doc, steps)
    ops_2, calls_2 = traced_counts(doc, 2 * steps)
    return (ops_2 - ops_1) / steps, (calls_2 - calls_1) / steps


def main() -> int:
    ops, calls = per_step(json.loads(DEFAULT_CONFIG.read_text()), STEPS)
    print(f"ops_per_step {ops:.1f}")
    print(f"calls_per_step {calls:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
