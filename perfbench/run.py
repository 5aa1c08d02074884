"""Outside-in benchmark of the ngdiff unlearning loop.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload gauss_run --seed 0 --seconds 30 --trace 0

``--trace 0`` runs timed passes of the workload through the ``ngdiff`` CLI,
one fresh interpreter per invocation, and reports the end-to-end metrics.
``--trace 1`` runs the same passes in this process, alternating untraced
and traced passes, and reports the per-layer metrics from the spans of the
traced ones plus the tracing overhead.  Every pass's artifacts are checked
(see checks.py).  Detail lines go to standard output first; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment it was measured in, is
also written to ``.perfbench-work/<workload>-seed<n>-trace<t>/result.json``.

The program is taken from ``src/`` of the checkout, never from an installed
copy; without ``src/ngdiff`` and ``configs/`` the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ".perfbench-work"
SETUP_EVERY_S = 2.5
# About the median of reference_sample() on the host the baseline was taken
# on: times are reported as they would be on a host that runs it this fast.
REFERENCE_S = 0.250
MIN_PASSES = 3
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((32, 16))
# end-to-end figures that the detail lines carry, not the JSON line (README.md)
DETAIL_UNITS = {"fail_ratio": "ratio", "retain_acc": "fraction", "forget_acc": "fraction", "quad_err": "ratio"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    """What a result depends on besides the code: compare only like with like."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = None
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
    }


class Bench:
    """One benchmark run: a workload, a seed, a work directory."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rel_work = f"{WORK}/{workload}-seed{seed}-trace{int(trace)}"
        self.work = ROOT / self.rel_work
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.outcome = checks.Outcome()
        self.ngdiff = None

    def load_ngdiff(self):
        sys.path.insert(0, str(ROOT / "src"))
        import ngdiff
        import ngdiff.cli  # the package does not import its CLI itself

        if not Path(ngdiff.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"ngdiff imported from {ngdiff.__file__}, not from src/")
        self.ngdiff = ngdiff

    # -- invoking the CLI ----------------------------------------------------

    def cli_subprocess(self, argv) -> int:
        proc = subprocess.run(
            [sys.executable, "-m", "ngdiff.cli", *argv],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            self.outcome.errors.append(f"ngdiff {' '.join(argv)}: {proc.stderr.strip()[-500:]}")
        return proc.returncode

    def cli_in_process(self, argv) -> int:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.ngdiff.cli.main(list(argv))
        except Exception:  # the pass goes on; the run counts as failed
            self.outcome.errors.append(f"ngdiff {' '.join(argv)}: {traceback.format_exc()[-500:]}")
            return 1

    def run_pass(self, index: int, tag: str, cli) -> tuple[float, checks.Outcome]:
        """Time one pass, then check its artifacts and delete them."""
        out = f"{self.rel_work}/pass{index}{tag}"
        invocations = workloads.plan_pass(self.workload, self.seed, index, out)
        start = time.perf_counter()
        codes = [cli(inv.argv) for inv in invocations]
        wall = time.perf_counter() - start
        result = checks.Outcome()
        for inv, code in zip(invocations, codes):
            result.merge(checks.check_invocation(self.ngdiff, inv, code, ROOT))
        result.write_bytes = sum(p.stat().st_size for p in (ROOT / out).rglob("*") if p.is_file())
        if not self.outcome.attempted:  # the run's first pass
            self.rerun_check(result, cli)
        shutil.rmtree(ROOT / out, ignore_errors=True)
        self.outcome.merge(result)
        return wall, result

    def rerun_check(self, result: checks.Outcome, cli) -> None:
        """Rerun the pass's first run from its config.json: artifacts must match bytes."""
        result.attempted += 1
        if not result.run_dirs:
            result.fail("rerun: no run to repeat")
            return
        first = result.run_dirs[0]
        rerun_out = f"{self.rel_work}/rerun"
        code = cli(("run", "--config", str(first.relative_to(ROOT) / "config.json"), "--out", rerun_out))
        again = ROOT / rerun_out / first.name
        problem = f"rerun exit code {code}" if code != 0 else checks.identical_artifacts(first, again)
        if problem:
            result.fail(f"rerun: {problem}")
        shutil.rmtree(ROOT / rerun_out, ignore_errors=True)

    # -- the two kinds of run ----------------------------------------------

    def setup_sample(self) -> float:
        """One fresh-interpreter ``import ngdiff`` plus generating the inputs."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ngdiff"], cwd=ROOT, env=self.env, check=True)
        workloads.plan_pass(self.workload, self.seed, 0, f"{self.rel_work}/pass0")
        return time.perf_counter() - start

    def reference_sample(self) -> float:
        """Seconds the host takes for fixed work that runs no ngdiff code.

        A fresh interpreter importing numpy, then a loop of small numpy and
        dict operations: the kinds of work a pass does.  No change to the
        program can move it, while the host's speed moves it as it moves the
        passes (see README.md, "Host noise").
        """
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True)
        total, table = 0.0, {}
        for _ in range(3000):
            total += float(np.tanh(_REFERENCE_MATRIX @ _REFERENCE_MATRIX.T).sum())
        for i in range(120_000):
            table[i % 97] = table.get(i % 89, 0) + i
        return time.perf_counter() - start

    def timed(self) -> tuple[dict, dict]:
        # Each pass is bracketed by reference samples and reported as its wall
        # time over their mean; each set-up sample follows a reference sample
        # and is reported over it.  Set-up is sampled before the first pass
        # and then after every SETUP_EVERY_S of passes.
        refs = [self.reference_sample()]
        setup = [self.setup_sample()]
        setup_ratios = [setup[-1] / refs[-1]]
        walls, ratios, rates, overheads = [], [], [], []
        since_setup = 0.0
        while len(walls) < MIN_PASSES or sum(walls) < self.seconds:
            wall, result = self.run_pass(len(walls), "", self.cli_subprocess)
            refs.append(self.reference_sample())
            host = (refs[-2] + refs[-1]) / 2
            walls.append(wall)
            ratios.append(wall / host)
            rates.append(result.steps / wall * host)
            overheads.extend(result.overheads)
            since_setup += wall
            if since_setup >= SETUP_EVERY_S:
                setup.append(self.setup_sample())
                setup_ratios.append(setup[-1] / refs[-1])
                since_setup = 0.0
        rss = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        q1, median, q3 = _quartiles(walls)
        metrics = {
            "wall_s": (statistics.median(ratios) * REFERENCE_S, "s"),
            "steps_per_s": (statistics.median(rates) / REFERENCE_S, "steps/s"),
            "pass_overhead": (statistics.fmean(overheads) if overheads else float("nan"), "ratio"),
            "peak_rss_mb": (max(rss) / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_ratios) * REFERENCE_S, "s"),
        }
        o = self.outcome
        details = {
            "raw_wall_s": {"median": median, "q1": q1, "q3": q3, "n": len(walls), "passes": walls},
            "raw_setup_s": {"median": statistics.median(setup), "samples": setup},
            "reference_s": refs,
            "fail_ratio": o.failed / o.attempted,
            "retain_acc": statistics.fmean(o.retain_acc) if o.retain_acc else None,
            "forget_acc": statistics.fmean(o.forget_acc) if o.forget_acc else None,
            "quad_err": max(o.quad_err) if o.quad_err else None,
        }
        return metrics, details

    def traced(self) -> tuple[dict, dict]:
        tracer = tracing.Tracer()
        walls = {"untraced": [], "traced": []}
        layers, parts, write_bytes, children = [], [], [], (0, 0)
        measured, pair = 0.0, 0
        while pair < 1 or measured < self.seconds:
            # alternate which side goes first; each side gets its own inputs
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                index = 2 * pair + traced
                if traced:
                    span_dir = self.work / f"spans{index}"
                    tracer.start(span_dir)
                    try:
                        wall, result = self.run_pass(index, "t", self.cli_in_process)
                    finally:
                        parts = tracer.stop()
                        shutil.rmtree(span_dir, ignore_errors=True)
                    layers.append(tracing.aggregate(parts))
                    write_bytes.append(result.write_bytes)
                    children = (layers[-1].calls["cli.sweep_child"], self.sweep_children(index))
                else:
                    wall, _ = self.run_pass(index, "u", self.cli_in_process)
                walls["traced" if traced else "untraced"].append(wall)
                measured += wall
            pair += 1
        (self.work / "spans.json").write_text(json.dumps(parts))
        values, absent = tracing.layer_metrics(tracer, layers)
        values["cli.write_bytes"] = (statistics.median(write_bytes), "bytes")
        untraced, traced = statistics.median(walls["untraced"]), statistics.median(walls["traced"])
        values["trace.overhead_s"] = (traced - untraced, "s")
        values["trace.spans"] = (statistics.median(layer.spans for layer in layers), "count")
        details = {
            "absent": absent,
            "untraced_wall_s": walls["untraced"],
            "traced_wall_s": walls["traced"],
            "trace_overhead_ratio": (traced - untraced) / untraced,
            "absent_targets": tracer.absent,
            "sweep_children_traced": f"{children[0]} of {children[1]} in the last traced pass",
            "fail_ratio": self.outcome.failed / self.outcome.attempted,
        }
        return values, details

    def sweep_children(self, index: int) -> int:
        """How many sweep children pass ``index`` starts; each should leave spans."""
        invocations = workloads.plan_pass(self.workload, self.seed, index, "")
        return sum(len(inv.runs) for inv in invocations if inv.argv[0] == "sweep")


def _print_report(bench: Bench, metrics: dict, details: dict, env: dict) -> None:
    o = bench.outcome
    print(f"workload {bench.workload} seed {bench.seed} trace {int(bench.trace)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value in details.items():
        if name in ("absent", "absent_targets"):
            for what, reason in value.items():
                print(f"absent {what}: {reason}")
        elif value is None:
            print(f"detail {name}: absent (no run of this workload has it)")
        elif name in DETAIL_UNITS:
            print(f"detail {name} = {value:.6g} {DETAIL_UNITS[name]}")
        else:
            print(f"detail {name}: {json.dumps(value) if isinstance(value, dict) else value}")
    print(f"checks attempted {o.attempted} failed {o.failed}")
    for error in o.errors[:20]:
        print(f"error {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/ngdiff/__init__.py", *(workloads.GAUSS_CONFIG, workloads.QUAD_CONFIG))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of the repository: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    bench.load_ngdiff()
    env = environment()
    metrics, details = bench.traced() if bench.trace else bench.timed()
    o = bench.outcome
    result = {
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (bench.work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "env": env, "details": details, "errors": o.errors, **result}, indent=1, default=str))
    _print_report(bench, metrics, details, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
