"""Unlearning loop, orchestration, metrics, Pareto tooling, and cost accounting.

A run is fully described by a :class:`RunConfig` (method, learning-rate
mode, step budget, seeds, problem).  Classification runs start from the
"no-unlearn" snapshot produced by :func:`finetune` on the pooled data;
analytic quadratic-pair runs start from a configured point.  Each step
computes per-task gradients on fresh minibatches (full batch for analytic
problems), combines them, optionally refreshes the step size from retain
probes, and applies ``theta <- theta - eta * g``.  The result is a
:class:`RunRecord` with one row per step, exact pass counters, and final
metrics; identical configs reproduce records bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import combiners
from .autodiff import (
    FlatGradient,
    Graph,
    NumericError,
    ParameterVector,
    _adopt_vector,
    axpy_update,
    forward,
)
from .bench import (
    ForgetRetainSplit,
    LabeledBatch,
    gen_gaussian_clusters,
    mlp_factory,
    split_forget_retain,
)
from .combiners import CombinerSpec, combine
from .objectives import (
    FORGET_KINDS,
    LossPair,
    NpoConfig,
    NpoLoss,
    QuadPairProblem,
    UNBOUNDED_QUADRATIC,
)
from .scheduler import LrState, maybe_update

TRACE_COLUMNS = (
    "step",
    "loss_retain",
    "loss_forget",
    "acc_retain",
    "acc_forget",
    "lr",
    "coeff_c",
    "gnorm_retain",
    "gnorm_forget",
    "cos_rf",
    "guard",
)
TRACE_HEADER = ",".join(TRACE_COLUMNS)
# one trace.csv line: the step, the nine floats as repr() writes them, the guard
_TRACE_LINE = "%d" + ",%r" * 9 + ",%d"

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A run configuration field is missing, unknown, or invalid."""

    def __init__(self, fieldpath: str, message: str):
        self.fieldpath = fieldpath
        super().__init__(f"{fieldpath}: {message}")


class NumericAbort(RuntimeError):
    """A loss or update became non-finite; carries the failing step index."""

    def __init__(self, step: int, message: str, last_params: ParameterVector | None = None):
        self.step = step
        self.last_params = last_params
        super().__init__(f"non-finite value at step {step}: {message}")


# --------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class NpoSpec:
    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class LrConfig:
    """Fixed step size, or probe-based automatic selection.

    In auto mode ``eta`` (optional) is the step size used until the first
    successful probe fit; when omitted it falls back to ``probe_epsilon``.
    """

    mode: str
    eta: float | None = None
    update_period: int = 10
    probe_epsilon: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("fixed", "auto"):
            raise ValueError("lr mode must be 'fixed' or 'auto'")
        if self.mode == "fixed" and not (self.eta is not None and self.eta > 0):
            raise ValueError("fixed lr mode requires eta > 0")
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.update_period < 1:
            raise ValueError("update_period must be >= 1")
        if not self.probe_epsilon > 0:
            raise ValueError("probe_epsilon must be positive")


@dataclass(frozen=True)
class Seeds:
    data: int
    init: int
    method: int


@dataclass(frozen=True)
class GaussianProblem:
    """Synthetic forget-one-class classification task."""

    classes: int = 3
    per_class: int = 300
    dim: int = 8
    separation: float = 4.0
    forget_class: int = 0
    hidden: tuple[int, ...] = (16,)
    finetune_steps: int = 400
    finetune_eta: float = 0.5

    def __post_init__(self):
        checks = (
            ("classes", self.classes >= 2, "need at least 2 classes"),
            ("per_class", self.per_class >= 1, "must be >= 1"),
            ("dim", self.dim >= self.classes,
             f"must be >= classes ({self.classes}) for axis-anchored centers"),
            ("separation", 0 < self.separation < math.inf, "must be positive and finite"),
            ("forget_class", 0 <= self.forget_class < self.classes,
             f"must lie in [0, {self.classes})"),
            ("hidden", all(w >= 1 for w in self.hidden), "layer widths must be >= 1"),
            ("finetune_steps", self.finetune_steps >= 0, "must be >= 0"),
            ("finetune_eta", 0 < self.finetune_eta < math.inf, "must be positive and finite"),
        )
        for name, ok, message in checks:
            if not ok:
                raise ConfigError(f"problem.{name}", message)


@dataclass(frozen=True)
class QuadProblemConfig:
    """Analytic quadratic-pair task; starts from ``theta0`` (default: b)."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    forget_kind: str = UNBOUNDED_QUADRATIC
    theta0: tuple[float, ...] | None = None

    def __post_init__(self):
        dim = len(self.a)
        checks = (
            ("a", dim >= 1, "must be non-empty"),
            ("a", all(map(math.isfinite, self.a)), "entries must be finite"),
            ("b", len(self.b) == dim, f"must have the length of a ({dim})"),
            ("b", all(map(math.isfinite, self.b)), "entries must be finite"),
            ("b", self.b != self.a, "must differ from a"),
            ("theta0", self.theta0 is None or len(self.theta0) == dim,
             f"must have the length of a ({dim})"),
            ("theta0", self.theta0 is None or all(map(math.isfinite, self.theta0)),
             "entries must be finite"),
        )
        for name, ok, message in checks:
            if not ok:
                raise ConfigError(f"problem.{name}", message)


@dataclass(frozen=True)
class RunConfig:
    method: CombinerSpec | NpoSpec
    lr: LrConfig
    steps: int
    seeds: Seeds
    problem: GaussianProblem | QuadProblemConfig
    batch_size: int = 32
    eval_every: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if isinstance(self.method, NpoSpec) and isinstance(self.problem, QuadProblemConfig):
            raise ValueError("npo requires a classification problem with a reference model")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


def _section(d: dict, key: str) -> dict:
    """The required top-level ``key`` of ``d``, which must be a JSON object."""
    value = _require(d, key, "")
    if not isinstance(value, dict):
        raise ConfigError(key, "must be an object")
    return value


def _reject_unknown(d: dict, allowed, path: str):
    for key in d:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, "unknown field")


def _method_from_dict(d: dict, seeds: Seeds) -> CombinerSpec | NpoSpec:
    kind = _require(d, "kind", "method")
    if kind == "npo":
        _reject_unknown(d, {"kind", "beta"}, "method")
        try:
            return NpoSpec(beta=float(_require(d, "beta", "method")))
        except ValueError as exc:
            raise ConfigError("method.beta", str(exc)) from None
    allowed = {"kind", "c", "amplitude", "decay"}
    _reject_unknown(d, allowed, "method")
    try:
        return CombinerSpec(
            kind=kind,
            c=float(d["c"]) if d.get("c") is not None else None,
            rng_seed=seeds.method if kind == combiners.RLW else None,
            amplitude=float(d.get("amplitude", 0.0)),
            decay=float(d.get("decay", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError("method", str(exc)) from None


def _method_to_dict(method: CombinerSpec | NpoSpec) -> dict:
    if isinstance(method, NpoSpec):
        return {"kind": "npo", "beta": method.beta}
    d = {"kind": method.kind}
    if method.c is not None:
        d["c"] = method.c
    if method.kind == combiners.SCHEDULED_GDIFF:
        d["amplitude"] = method.amplitude
        d["decay"] = method.decay
    return d


def _problem_from_dict(d: dict) -> GaussianProblem | QuadProblemConfig:
    kind = _require(d, "kind", "problem")
    try:
        if kind == "gaussian":
            _reject_unknown(
                d,
                {
                    "kind", "classes", "per_class", "dim", "separation",
                    "forget_class", "hidden", "finetune_steps", "finetune_eta",
                },
                "problem",
            )
            return GaussianProblem(
                classes=int(d.get("classes", 3)),
                per_class=int(d.get("per_class", 300)),
                dim=int(d.get("dim", 8)),
                separation=float(d.get("separation", 4.0)),
                forget_class=int(d.get("forget_class", 0)),
                hidden=tuple(int(w) for w in d.get("hidden", (16,))),
                finetune_steps=int(d.get("finetune_steps", 400)),
                finetune_eta=float(d.get("finetune_eta", 0.5)),
            )
        if kind == "quad_pair":
            _reject_unknown(d, {"kind", "a", "b", "forget_kind", "theta0"}, "problem")
            forget_kind = d.get("forget_kind", UNBOUNDED_QUADRATIC)
            if forget_kind not in FORGET_KINDS:
                raise ConfigError("problem.forget_kind", f"must be one of {FORGET_KINDS}")
            theta0 = d.get("theta0")
            return QuadProblemConfig(
                a=tuple(float(v) for v in _require(d, "a", "problem")),
                b=tuple(float(v) for v in _require(d, "b", "problem")),
                forget_kind=forget_kind,
                theta0=tuple(float(v) for v in theta0) if theta0 is not None else None,
            )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("problem", str(exc)) from None
    raise ConfigError("problem.kind", f"unknown problem kind {kind!r}")


def _problem_to_dict(problem: GaussianProblem | QuadProblemConfig) -> dict:
    if isinstance(problem, GaussianProblem):
        return {
            "kind": "gaussian",
            "classes": problem.classes,
            "per_class": problem.per_class,
            "dim": problem.dim,
            "separation": problem.separation,
            "forget_class": problem.forget_class,
            "hidden": list(problem.hidden),
            "finetune_steps": problem.finetune_steps,
            "finetune_eta": problem.finetune_eta,
        }
    d = {
        "kind": "quad_pair",
        "a": list(problem.a),
        "b": list(problem.b),
        "forget_kind": problem.forget_kind,
    }
    if problem.theta0 is not None:
        d["theta0"] = list(problem.theta0)
    return d


def config_from_dict(d: dict) -> RunConfig:
    """Parse and validate a configuration document; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise ConfigError("", "config must be a JSON object")
    _reject_unknown(
        d, {"method", "lr", "steps", "batch_size", "seeds", "problem", "eval_every"}, ""
    )
    seeds_d = _section(d, "seeds")
    _reject_unknown(seeds_d, {"data", "init", "method"}, "seeds")
    try:
        seeds = Seeds(
            data=int(_require(seeds_d, "data", "seeds")),
            init=int(_require(seeds_d, "init", "seeds")),
            method=int(_require(seeds_d, "method", "seeds")),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("seeds", "seeds must be integers") from None
    lr_d = _section(d, "lr")
    _reject_unknown(lr_d, {"mode", "eta", "update_period", "probe_epsilon"}, "lr")
    try:
        lr = LrConfig(
            mode=_require(lr_d, "mode", "lr"),
            eta=float(lr_d["eta"]) if lr_d.get("eta") is not None else None,
            update_period=int(lr_d.get("update_period", 10)),
            probe_epsilon=float(lr_d.get("probe_epsilon", 1e-3)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("lr", str(exc)) from None
    method = _method_from_dict(_section(d, "method"), seeds)
    problem = _problem_from_dict(_section(d, "problem"))
    try:
        return RunConfig(
            method=method,
            lr=lr,
            steps=int(_require(d, "steps", "")),
            seeds=seeds,
            problem=problem,
            batch_size=int(d.get("batch_size", 32)),
            eval_every=int(d.get("eval_every", 1)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("", str(exc)) from None


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        "method": _method_to_dict(cfg.method),
        "lr": {
            "mode": cfg.lr.mode,
            "eta": cfg.lr.eta,
            "update_period": cfg.lr.update_period,
            "probe_epsilon": cfg.lr.probe_epsilon,
        },
        "steps": cfg.steps,
        "batch_size": cfg.batch_size,
        "seeds": {"data": cfg.seeds.data, "init": cfg.seeds.init, "method": cfg.seeds.method},
        "problem": _problem_to_dict(cfg.problem),
        "eval_every": cfg.eval_every,
    }


def config_hash(cfg: RunConfig) -> str:
    text = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def run_name(cfg: RunConfig) -> str:
    kind = "npo" if isinstance(cfg.method, NpoSpec) else cfg.method.kind
    s = cfg.seeds
    return f"{kind}_{s.data}-{s.init}-{s.method}_{config_hash(cfg)}"


# --------------------------------------------------------------------------
# Records


class StepRow(NamedTuple):
    """One trace row; a named tuple because the loop builds one per step."""

    step: int
    loss_retain: float
    loss_forget: float
    acc_retain: float
    acc_forget: float
    lr: float
    coeff_c: float
    gnorm_retain: float
    gnorm_forget: float
    cos_rf: float
    guard: int


@dataclass(frozen=True)
class EvalResult:
    acc_retain: float
    acc_forget: float
    loss_retain: float
    loss_forget: float


@dataclass(frozen=True)
class ParetoPoint:
    """One model's (retain loss, forget loss) summary for dominance checks."""

    retain_loss: float
    forget_loss: float
    tag: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.retain_loss) and math.isfinite(self.forget_loss)):
            raise ValueError("pareto point losses must be finite")


@dataclass(frozen=True)
class RunRecord:
    config: dict
    rows: tuple[StepRow, ...]
    forward_passes: int
    backward_passes: int
    probe_forward_passes: int
    guard_trips: int
    final: EvalResult
    params_digest: str
    final_params: ParameterVector | None = None
    schema: int = SCHEMA_VERSION

    @property
    def steps(self) -> int:
        return len(self.rows)

    def pareto_point(self, tag: str = "") -> ParetoPoint:
        return ParetoPoint(self.final.loss_retain, self.final.loss_forget, tag)


def _num(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _denum(x) -> float:
    return math.nan if x is None else float(x)


def record_to_dict(record: RunRecord) -> dict:
    return {
        "schema": record.schema,
        "config": record.config,
        "trace_columns": list(TRACE_COLUMNS),
        # unpacked, not read by field name: a tuple field read costs twice a dataclass one
        "trace": [
            [step, _num(l_r), _num(l_f), _num(a_r), _num(a_f), _num(lr), _num(c),
             _num(g_r), _num(g_f), _num(cos), guard]
            for step, l_r, l_f, a_r, a_f, lr, c, g_r, g_f, cos, guard in record.rows
        ],
        "forward_passes": record.forward_passes,
        "backward_passes": record.backward_passes,
        "probe_forward_passes": record.probe_forward_passes,
        "guard_trips": record.guard_trips,
        "final": {
            "acc_retain": _num(record.final.acc_retain),
            "acc_forget": _num(record.final.acc_forget),
            "loss_retain": _num(record.final.loss_retain),
            "loss_forget": _num(record.final.loss_forget),
        },
        "params_digest": record.params_digest,
    }


def record_from_dict(d: dict) -> RunRecord:
    """Re-parse an emitted record, re-validating structure and counters."""
    if not isinstance(d, dict) or d.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"record schema must be {SCHEMA_VERSION}")
    if list(d.get("trace_columns", ())) != list(TRACE_COLUMNS):
        raise ValueError("record trace columns do not match the schema")
    rows = []
    for raw in d["trace"]:
        if len(raw) != len(TRACE_COLUMNS):
            raise ValueError("trace row has the wrong width")
        rows.append(StepRow(int(raw[0]), *map(_denum, raw[1:-1]), int(raw[-1])))
    counters = {}
    for key in ("forward_passes", "backward_passes", "probe_forward_passes", "guard_trips"):
        counters[key] = int(d[key])
        if counters[key] < 0:
            raise ValueError(f"{key} must be non-negative")
    final = d["final"]
    return RunRecord(
        config=d["config"],
        rows=tuple(rows),
        final=EvalResult(
            acc_retain=_denum(final["acc_retain"]),
            acc_forget=_denum(final["acc_forget"]),
            loss_retain=_denum(final["loss_retain"]),
            loss_forget=_denum(final["loss_forget"]),
        ),
        params_digest=str(d["params_digest"]),
        **counters,
    )


def record_to_json(record: RunRecord) -> str:
    return json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"), allow_nan=False)


def record_from_json(text: str) -> RunRecord:
    return record_from_dict(json.loads(text))


def write_trace_csv(record: RunRecord, path) -> None:
    lines = [TRACE_HEADER]
    lines.extend(_TRACE_LINE % row for row in record.rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Pareto tooling


def dominated_by(p: ParetoPoint, q: ParetoPoint) -> bool:
    """Whether ``q`` dominates ``p``: q retains at least as well (lower retain
    loss) and forgets at least as much (higher forget loss), one strictly."""
    return (
        q.retain_loss <= p.retain_loss
        and q.forget_loss >= p.forget_loss
        and (q.retain_loss < p.retain_loss or q.forget_loss > p.forget_loss)
    )


def non_dominated_set(points) -> list[ParetoPoint]:
    """All points not dominated by any other, in stable input order."""
    points = list(points)
    return [p for p in points if not any(dominated_by(p, q) for q in points if q is not p)]


def pass_overhead(record: RunRecord) -> float:
    """Forward-equivalent cost of the run relative to the fixed-rate baseline.

    Cost model: a forward pass is 1 unit, a backward pass 2 units, and a
    gradient-free probe pass 2 units; the baseline is the 6 units/step of a
    plain two-task gradient run.  Computed exactly in integer arithmetic.
    """
    observed = (
        record.forward_passes
        + 2 * record.backward_passes
        + 2 * record.probe_forward_passes
    )
    return float(Fraction(observed, 6 * record.steps))


# --------------------------------------------------------------------------
# Tasks


class _Counters:
    __slots__ = ("forward", "backward", "probe_forward")

    def __init__(self):
        self.forward = 0
        self.backward = 0
        self.probe_forward = 0


class _BatchStream:
    """Deterministic shuffled minibatch index stream over n samples."""

    def __init__(self, n: int, batch_size: int, seed_key):
        self._rng = np.random.default_rng(seed_key)
        self._n = n
        self._batch = min(batch_size, n)
        self._perm = self._rng.permutation(n)
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._pos + self._batch > self._n:
            self._perm = self._rng.permutation(self._n)
            self._pos = 0
        out = self._perm[self._pos : self._pos + self._batch]
        self._pos += self._batch
        return out


class _QuadTask:
    """Analytic quadratic-pair task: full-batch closed-form losses/gradients.

    The problem returns each gradient as a fresh array, so it is adopted
    into a ``FlatGradient`` without a copy.
    """

    has_accuracy = False

    def __init__(self, cfg: RunConfig, counters: _Counters):
        prob = cfg.problem
        self.problem = QuadPairProblem(
            np.array(prob.a), np.array(prob.b), prob.forget_kind
        )
        theta0 = np.array(prob.theta0 if prob.theta0 is not None else prob.b, dtype=float)
        self.initial_params = ParameterVector(theta0, self.problem.layout)
        self._counters = counters

    def retain_loss_grad(self, params, step):
        self._counters.forward += 1
        self._counters.backward += 1
        return (
            self.problem.retain_loss(params),
            _adopt_vector(FlatGradient, self.problem.retain_grad(params), params.layout, "gradient"),
        )

    def forget_loss_grad(self, params, step):
        self._counters.forward += 1
        self._counters.backward += 1
        return (
            self.problem.forget_loss(params),
            _adopt_vector(FlatGradient, self.problem.forget_grad(params), params.layout, "gradient"),
        )

    def probe_loss(self, params) -> float:
        self._counters.probe_forward += 1
        return self.problem.retain_loss(params)

    def evaluate(self, params) -> EvalResult:
        return EvalResult(
            acc_retain=math.nan,
            acc_forget=math.nan,
            loss_retain=self.problem.retain_loss(params),
            loss_forget=self.problem.forget_loss(params),
        )


class _ClassificationTask:
    """Forget-one-class task over a finetuned MLP with minibatch streams."""

    has_accuracy = True

    def __init__(self, cfg: RunConfig, counters: _Counters, initial_params=None):
        prob = cfg.problem
        data = gen_gaussian_clusters(
            cfg.seeds.data, prob.classes, prob.per_class, prob.dim, prob.separation
        )
        self.split = split_forget_retain(data, prob.forget_class)
        widths = [prob.dim, *prob.hidden, prob.classes]
        self.graph, params0 = mlp_factory(cfg.seeds.init, widths)
        if initial_params is not None:
            self.initial_params = initial_params
        else:
            self.initial_params = finetune(
                self.graph, params0, data, prob.finetune_steps, prob.finetune_eta
            )
        self._counters = counters
        self._retain_stream = _BatchStream(
            self.split.retain.n, cfg.batch_size, [cfg.seeds.method, 0]
        )
        self._forget_stream = _BatchStream(
            self.split.forget.n, cfg.batch_size, [cfg.seeds.method, 1]
        )
        self._retain_batch: LabeledBatch | None = None
        self.npo: NpoLoss | None = None
        self._npo_ref: np.ndarray | None = None
        if isinstance(cfg.method, NpoSpec):
            self.npo = NpoLoss(
                self.graph, NpoConfig(cfg.method.beta, self.initial_params)
            )
            # frozen model: reference log-probs precomputed once per sample
            self._npo_ref = self.npo.reference_logprobs(self.split.forget)

    def retain_loss_grad(self, params, step):
        self._retain_batch = self.split.retain.take(self._retain_stream.next())
        self._counters.forward += 1
        loss = forward(self.graph, params, self._retain_batch)
        self._counters.backward += 1
        return loss, self.graph.backward()

    def forget_loss_grad(self, params, step):
        batch = self.split.forget.take(self._forget_stream.next())
        self._counters.forward += 1
        loss = forward(self.graph, params, batch)
        self._counters.backward += 1
        return loss, self.graph.backward()

    def npo_loss_grad(self, params, step):
        idx = self._forget_stream.next()
        batch = self.split.forget.take(idx)
        self._counters.forward += 1
        self._counters.backward += 1
        loss, grad = self.npo.loss_and_grad(params, batch, self._npo_ref[idx])
        # gradient-free diagnostics on matching minibatches, not counted
        self._retain_batch = self.split.retain.take(self._retain_stream.next())
        loss_retain = forward(self.graph, params, self._retain_batch)
        loss_forget = forward(self.graph, params, batch)
        return loss, grad, loss_retain, loss_forget

    def probe_loss(self, params) -> float:
        # probes reuse the minibatch that produced the current retain gradient
        self._counters.probe_forward += 1
        return forward(self.graph, params, self._retain_batch)

    def _split_eval(self, params, batch: LabeledBatch) -> tuple[float, float]:
        loss = forward(self.graph, params, batch)
        pred = np.argmax(self.graph.logits, axis=1)
        return float(np.mean(pred == batch.labels)), loss

    def evaluate(self, params) -> EvalResult:
        acc_r, loss_r = self._split_eval(params, self.split.retain)
        acc_f, loss_f = self._split_eval(params, self.split.forget)
        return EvalResult(acc_r, acc_f, loss_r, loss_f)


def evaluate(graph: Graph, params: ParameterVector, split: ForgetRetainSplit) -> EvalResult:
    """Mean losses and argmax accuracies on both sides of a split."""

    def one(batch):
        loss = forward(graph, params, batch)
        pred = np.argmax(graph.logits, axis=1)
        return float(np.mean(pred == batch.labels)), loss

    acc_r, loss_r = one(split.retain)
    acc_f, loss_f = one(split.forget)
    return EvalResult(acc_r, acc_f, loss_r, loss_f)


def finetune(
    graph: Graph, params: ParameterVector, data: LabeledBatch, steps: int, eta: float
) -> ParameterVector:
    """Plain full-batch descent on the pooled cross-entropy.

    Produces the "no-unlearn" snapshot every unlearning run starts from
    (and the reference model for the preference-loss baseline).
    """
    for step in range(steps):
        try:
            forward(graph, params, data)  # raises NumericError on a non-finite loss
            grad = graph.backward()
            params = axpy_update(params, grad, eta)
        except NumericError as exc:
            raise NumericAbort(step, str(exc), params) from None
    return params


# --------------------------------------------------------------------------
# The unlearning loop


def _prepare_task(cfg: RunConfig, counters: _Counters, initial_params):
    if isinstance(cfg.problem, QuadProblemConfig):
        task = _QuadTask(cfg, counters)
        if initial_params is not None:
            task.initial_params = initial_params
        return task
    return _ClassificationTask(cfg, counters, initial_params)


def run_unlearning(cfg: RunConfig, initial_params: ParameterVector | None = None) -> RunRecord:
    """Execute one unlearning run and return its complete record.

    ``initial_params`` overrides the prepared starting point (useful to share
    one finetuned snapshot across methods); by default classification runs
    finetune from scratch, deterministically in the config seeds.
    """
    counters = _Counters()
    task = _prepare_task(cfg, counters, initial_params)
    params = task.initial_params
    is_npo = isinstance(cfg.method, NpoSpec)
    needs_losses = not is_npo and cfg.method.kind == combiners.LOSSNORM
    auto = cfg.lr.mode == "auto"
    lr_state = LrState(
        eta=cfg.lr.eta,
        update_period=cfg.lr.update_period,
        probe_epsilon=cfg.lr.probe_epsilon,
    )
    rows: list[StepRow] = []
    acc_retain = acc_forget = math.nan

    for step in range(cfg.steps):
        try:
            if is_npo:
                _, direction, loss_retain, loss_forget = task.npo_loss_grad(params, step)
                coeff = gnorm_r = gnorm_f = cos_rf = math.nan
            else:
                loss_retain, g_r = task.retain_loss_grad(params, step)
                loss_forget, g_f = task.forget_loss_grad(params, step)
                if not (math.isfinite(loss_retain) and math.isfinite(loss_forget)):
                    raise NumericError("task loss is non-finite")
                # cross-entropy on a saturated minibatch can round to exactly 0;
                # the loss-normalization weights need a strictly positive floor
                losses = (
                    LossPair(max(loss_retain, 1e-12), max(loss_forget, 1e-12))
                    if needs_losses
                    else None
                )
                out = combine(cfg.method, g_r, g_f, losses, step=step)
                direction = out.direction
                coeff = out.coefficient
                gnorm_r, gnorm_f = out.norm_retain, out.norm_forget
                cos_rf = (
                    float(g_r.data.dot(g_f.data)) / (gnorm_r * gnorm_f)
                    if gnorm_r > 0 and gnorm_f > 0
                    else math.nan
                )

            guard_before = lr_state.guard_trips
            if auto:
                lr_state = maybe_update(
                    lr_state, step, task.probe_loss, params, direction, loss_zero=loss_retain
                )
            eta = lr_state.step_size if auto else cfg.lr.eta

            if task.has_accuracy and step % cfg.eval_every == 0:
                ev = task.evaluate(params)
                acc_retain, acc_forget = ev.acc_retain, ev.acc_forget

            rows.append(
                StepRow(
                    step, loss_retain, loss_forget, acc_retain, acc_forget, eta, coeff,
                    gnorm_r, gnorm_f, cos_rf, lr_state.guard_trips - guard_before,
                )
            )
            params = axpy_update(params, direction, eta)
        except NumericError as exc:
            raise NumericAbort(step, str(exc), params) from None

    final = task.evaluate(params)
    digest = hashlib.sha256(params.data.tobytes()).hexdigest()
    return RunRecord(
        config=config_to_dict(cfg),
        rows=tuple(rows),
        forward_passes=counters.forward,
        backward_passes=counters.backward,
        probe_forward_passes=counters.probe_forward,
        guard_trips=lr_state.guard_trips,
        final=final,
        params_digest=digest,
        final_params=params,
    )
