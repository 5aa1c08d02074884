"""Workload inputs, derived from the workload seed alone.

A workload is a list of passes; a pass is a list of ``ngdiff`` CLI
invocations.  Each invocation carries the argument list (after the
``ngdiff`` program name) and the runs it must produce, so the checks know
what to look for.  Nothing here imports ``ngdiff``: the inputs are plain
argument lists over the shipped configs, which keeps the timed passes on
the public CLI.

Why each workload exists (the layer-to-metric mapping is in README.md):

* ``gauss_run`` - independent ``ngdiff run`` calls of the shipped Gaussian
  config, every run with its own data/init/method seeds.  The flagship
  path: autodiff dominates, and no two runs share a finetune, so a finetune
  cache must show no gain here.  Workload seed 0 starts at the shipped
  seeds 0/1000/2000, which keep the eta-growth defect on purpose.
* ``quad_sweep`` - ``ngdiff sweep --param c --jobs 1`` over the shipped
  quadratic config.  Never reaches autodiff, bench, the scheduler or NPO;
  per-step Python and artifact writes dominate.  Closed-form answers.
* ``gauss_sweep`` - a method sweep and an NPO beta sweep of the shipped
  Gaussian config with its shipped seeds, both ``--jobs 2``.  Every child
  repeats one identical finetune; the only workload that reaches NPO.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GAUSS_CONFIG = "configs/ngdiff_gaussian.json"
QUAD_CONFIG = "configs/gdiff_quad.json"

# gauss_run: runs per pass; run i uses seeds base+i, base+1000+i, base+2000+i
GAUSS_RUNS_PER_PASS = 2
SEED_STRIDE = 100_000

# quad_sweep: c values per pass.  The range stays inside (0.5, 1) but away
# from 0.5, where the 900 fixed-eta steps (contraction 1 - 0.1*(2c-1) per
# step) have not yet converged to the closed form the checks compare with.
QUAD_VALUES_PER_PASS = 12
QUAD_C_RANGE = (0.6, 0.98)

# gauss_sweep: every combiner `sweep --param method` can express.  gdiff and
# scheduled_gdiff are left out because that sweep cannot set c, amplitude
# or decay for them.
SWEEP_METHODS = ("gd", "ga", "lossnorm", "rlw", "pcgrad", "imtlg", "ngdiff")
NPO_BETAS_PER_PASS = 3
NPO_BETA_RANGE = (0.1, 1.0)
SWEEP_JOBS = 2

WORKLOADS = ("gauss_run", "quad_sweep", "gauss_sweep")

# A workload seed kept out of every tuning and baseline run, so a later claim
# can be checked on inputs nobody tuned against.
HELD_OUT_SEED = 7127


@dataclass(frozen=True)
class Invocation:
    """One ``ngdiff`` call: its arguments and the runs it should write.

    ``runs`` names each expected run by the swept value (sweeps) or by its
    seeds (single runs); the checks expect exactly that many run directories
    under ``out``.
    """

    argv: tuple[str, ...]
    out: str
    runs: tuple[str, ...]


def _gauss_run(seed: int, pass_index: int, out: str) -> list[Invocation]:
    base = seed * SEED_STRIDE
    invocations = []
    for k in range(GAUSS_RUNS_PER_PASS):
        i = pass_index * GAUSS_RUNS_PER_PASS + k
        data, init, method = base + i, base + 1000 + i, base + 2000 + i
        argv = (
            "run", "--config", GAUSS_CONFIG, "--out", f"{out}/run{k}",
            "--seed-data", str(data), "--seed-init", str(init), "--seed-method", str(method),
        )
        invocations.append(Invocation(argv, f"{out}/run{k}", (f"{data}-{init}-{method}",)))
    return invocations


def _distinct_uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[str]:
    values: list[str] = []
    while len(values) < n:
        v = f"{rng.uniform(lo, hi):.6f}"
        if v not in values:
            values.append(v)
    return values


def _quad_sweep(seed: int, pass_index: int, out: str) -> list[Invocation]:
    rng = random.Random(f"quad_sweep:{seed}:{pass_index}")
    values = _distinct_uniform(rng, QUAD_VALUES_PER_PASS, *QUAD_C_RANGE)
    argv = (
        "sweep", "--config", QUAD_CONFIG, "--out", out,
        "--param", "c", "--values", ",".join(values), "--jobs", "1",
    )
    return [Invocation(argv, out, tuple(values))]


def _gauss_sweep(seed: int, pass_index: int, out: str) -> list[Invocation]:
    # identical inputs on every pass: repeated finetunes are the point here
    rng = random.Random(f"gauss_sweep:{seed}")
    betas = _distinct_uniform(rng, NPO_BETAS_PER_PASS, *NPO_BETA_RANGE)
    jobs = str(SWEEP_JOBS)
    methods_out, betas_out = f"{out}/method", f"{out}/beta"
    return [
        Invocation(
            ("sweep", "--config", GAUSS_CONFIG, "--out", methods_out, "--param", "method",
             "--values", ",".join(SWEEP_METHODS), "--jobs", jobs),
            methods_out, SWEEP_METHODS,
        ),
        Invocation(
            ("sweep", "--config", GAUSS_CONFIG, "--out", betas_out, "--param", "beta",
             "--values", ",".join(betas), "--jobs", jobs),
            betas_out, tuple(betas),
        ),
    ]


_PLANS = {"gauss_run": _gauss_run, "quad_sweep": _quad_sweep, "gauss_sweep": _gauss_sweep}


def plan_pass(workload: str, seed: int, pass_index: int, out: str) -> list[Invocation]:
    """The invocations of pass ``pass_index``; a pure function of its arguments."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    if pass_index < 0:
        raise ValueError("pass_index must be >= 0")
    return _PLANS[workload](seed, pass_index, out)
