"""Unlearning loop, orchestration, metrics, Pareto tooling, and cost accounting.

A run is fully described by a :class:`RunConfig` (method, learning-rate
mode, step budget, seeds, problem).  Classification runs start from the
"no-unlearn" start that :func:`no_unlearn` makes - the forget/retain split,
the MLP and its weights finetuned on the pooled data - which runs with the
same data, init and problem can share; analytic quadratic-pair runs start
from a configured point.  Each step
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
from collections import namedtuple
from functools import cached_property
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
from .objectives import FORGET_KINDS, UNBOUNDED_QUADRATIC, NpoLoss, QuadPairProblem
from .scheduler import LrState, maybe_update

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A run configuration field is missing, unknown, or invalid."""

    def __init__(self, fieldpath: str, message: str):
        self.fieldpath = fieldpath
        super().__init__(f"{fieldpath}: {message}" if fieldpath else message)


class NumericAbort(RuntimeError):
    """A loss or update became non-finite; carries the failing step index."""

    def __init__(self, step: int, message: str, last_params: ParameterVector | None = None):
        self.step = step
        self.last_params = last_params
        super().__init__(f"non-finite value at step {step}: {message}")


# --------------------------------------------------------------------------
# Configuration
#
# The holders below are plain named tuples.  What a config document may
# hold - each field's JSON type, range, default and the kinds that read it -
# is the field table after them, which one parser and one echo both follow.


class NpoSpec(NamedTuple):
    kind = "npo"  # a class attribute, as the kind of a CombinerSpec is a field
    beta: float


class LrConfig(NamedTuple):
    """Fixed step size, or probe-based automatic selection.

    In auto mode ``eta`` (optional) is the step size used until the first
    successful probe fit; when omitted it falls back to ``probe_epsilon``.
    """

    mode: str
    eta: float | None
    update_period: int
    probe_epsilon: float


class Seeds(NamedTuple):
    data: int
    init: int
    method: int


class GaussianProblem(NamedTuple):
    """Synthetic forget-one-class classification task."""

    kind = "gaussian"
    classes: int
    per_class: int
    dim: int
    separation: float
    forget_class: int
    hidden: tuple[int, ...]
    finetune_steps: int
    finetune_eta: float


class QuadProblemConfig(NamedTuple):
    """Analytic quadratic-pair task; starts from ``theta0`` (None: from b)."""

    kind = "quad_pair"
    a: tuple[float, ...]
    b: tuple[float, ...]
    forget_kind: str
    theta0: tuple[float, ...] | None


class RunConfig(NamedTuple):
    method: CombinerSpec | NpoSpec
    lr: LrConfig
    steps: int
    seeds: Seeds
    problem: GaussianProblem | QuadProblemConfig
    batch_size: int
    eval_every: int


# JSON types of config fields; each is also the message of its check.  A
# bool or a string is never a number, and an int field takes a float only
# when it is integral (300.0, 1e3), echoing it as an int.
INT = "an integer"
FLOAT = "a finite number"
STR = "a string"
INTS = "a list of integers"
FLOATS = "a list of finite numbers"

REQUIRED = object()  # the default of a field the document must give
OMIT = object()  # the default of an optional field the echo leaves out when absent


def _at_least(n):
    return (lambda v: v >= n), f"must be >= {n}"


def _one_of(options):
    return (lambda v: v in options), f"must be one of {options}"


_POSITIVE = (lambda v: v > 0), "must be > 0"
# the most entries a Gaussian problem's data (classes*per_class*dim) and its
# MLP's parameter vector may each hold; the shipped config holds 7200 and 195
SIZE_CAP = 2**24
_GAUSSIAN = (GaussianProblem.kind,)
_QUAD = (QuadProblemConfig.kind,)

# One row per field, checked in this order: (name, JSON type or the rows of a
# sub-object, (rule, message) or None, default, the kinds that read it or None
# for all).  A kind-gated row must follow its section's "kind" row; a field
# the kind does not read is rejected, and neither set nor echoed.  A null
# stands for an absent field whose default is None or OMIT; a None default
# echoes as null.  The checks that relate two fields are in
# _check_across_fields.
SEEDS_FIELDS = tuple(
    (name, INT, _at_least(0), REQUIRED, None) for name in ("data", "init", "method")
)
LR_FIELDS = (
    ("mode", STR, _one_of(("fixed", "auto")), REQUIRED, None),
    ("eta", FLOAT, _POSITIVE, None, None),
    ("update_period", INT, _at_least(1), 10, None),
    ("probe_epsilon", FLOAT, _POSITIVE, 1e-3, None),
)
METHOD_FIELDS = (
    ("kind", STR, _one_of((*combiners.KINDS, NpoSpec.kind)), REQUIRED, None),
    ("c", FLOAT, ((lambda v: 0 <= v <= 1), "must lie in [0, 1]"), REQUIRED,
     (combiners.GDIFF, combiners.SCHEDULED_GDIFF)),
    ("amplitude", FLOAT, None, 0.0, (combiners.SCHEDULED_GDIFF,)),
    ("decay", FLOAT, ((lambda v: 0 < v < 1), "must lie in (0, 1)"), REQUIRED,
     (combiners.SCHEDULED_GDIFF,)),
    ("beta", FLOAT, _POSITIVE, REQUIRED, (NpoSpec.kind,)),
)
PROBLEM_FIELDS = (
    ("kind", STR, _one_of((GaussianProblem.kind, QuadProblemConfig.kind)), REQUIRED, None),
    ("classes", INT, _at_least(2), 3, _GAUSSIAN),
    ("per_class", INT, _at_least(1), 300, _GAUSSIAN),
    ("dim", INT, None, 8, _GAUSSIAN),
    ("separation", FLOAT, _POSITIVE, 4.0, _GAUSSIAN),
    ("forget_class", INT, None, 0, _GAUSSIAN),
    ("hidden", INTS, ((lambda v: min(v, default=1) >= 1), "layer widths must be >= 1"), (16,),
     _GAUSSIAN),
    ("finetune_steps", INT, _at_least(0), 400, _GAUSSIAN),
    ("finetune_eta", FLOAT, _POSITIVE, 0.5, _GAUSSIAN),
    ("a", FLOATS, (len, "must be non-empty"), REQUIRED, _QUAD),
    ("b", FLOATS, None, REQUIRED, _QUAD),
    ("forget_kind", STR, _one_of(FORGET_KINDS), UNBOUNDED_QUADRATIC, _QUAD),
    ("theta0", FLOATS, None, OMIT, _QUAD),
)
RUN_FIELDS = (
    ("seeds", SEEDS_FIELDS, None, REQUIRED, None),
    ("lr", LR_FIELDS, None, REQUIRED, None),
    ("method", METHOD_FIELDS, None, REQUIRED, None),
    ("problem", PROBLEM_FIELDS, None, REQUIRED, None),
    ("steps", INT, _at_least(1), REQUIRED, None),
    ("batch_size", INT, _at_least(1), 32, None),
    ("eval_every", INT, _at_least(1), 1, None),
)
_PROBLEMS = {cls.kind: cls for cls in (GaussianProblem, QuadProblemConfig)}


def _number(value, integer: bool):
    """``value`` as an int (``integer``) or a finite float; None when it is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if integer:
        return int(value) if isinstance(value, int) or value.is_integer() else None
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return value if math.isfinite(value) else None


def _typed(value, typ: str, where: str):
    """``value`` as the JSON type ``typ``; a list becomes a tuple."""
    if typ == STR:
        out = value if isinstance(value, str) else None
    elif typ in (INTS, FLOATS):
        out = None
        if isinstance(value, list):
            items = [_number(v, typ == INTS) for v in value]
            out = tuple(items) if None not in items else None
    else:
        out = _number(value, typ == INT)
    if out is None:
        raise ConfigError(where, f"must be {typ}")
    return out


def _parse(d, path: str, rows) -> dict:
    """The checked values of the JSON object ``d`` at ``path``, by field name."""
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object" if path else "config must be a JSON object")
    names = {row[0] for row in rows}
    for key in d:
        if key not in names:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    values = {}
    for name, typ, check, default, kinds in rows:
        where = f"{path}.{name}" if path else name
        if kinds is not None and values["kind"] not in kinds:
            if name in d:
                raise ConfigError(where, f"not used by {path} kind {values['kind']!r}")
            continue
        if d.get(name) is None and (default is None or default is OMIT):
            values[name] = None
        elif name not in d:
            if default is REQUIRED:
                raise ConfigError(where, "missing required field")
            values[name] = default
        else:
            value = d[name]
            value = _parse(value, where, typ) if isinstance(typ, tuple) else _typed(value, typ, where)
            if check is not None and not check[0](value):
                raise ConfigError(where, check[1])
            values[name] = value
    return values


def _mlp_size(widths) -> int:
    """The parameter count of an MLP of ``widths``: each layer's weights and biases."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths, widths[1:]))


def _check_across_fields(cfg: RunConfig) -> None:
    p = cfg.problem
    if p.kind == GaussianProblem.kind:
        checks = [
            ("problem.dim", p.dim >= p.classes,
             f"must be >= classes ({p.classes}) for axis-anchored centers"),
            ("problem.forget_class", 0 <= p.forget_class < p.classes,
             f"must lie in [0, {p.classes})"),
            ("problem.per_class", p.classes * p.per_class * p.dim <= SIZE_CAP,
             f"classes*per_class*dim must be <= {SIZE_CAP}"),
            ("problem.hidden", _mlp_size((p.dim, *p.hidden, p.classes)) <= SIZE_CAP,
             f"the MLP must have <= {SIZE_CAP} parameters"),
        ]
    else:
        n = len(p.a)
        checks = [
            ("problem.b", len(p.b) == n, f"must have the length of a ({n})"),
            ("problem.b", p.b != p.a, "must differ from a"),
            ("problem.theta0", p.theta0 is None or len(p.theta0) == n,
             f"must have the length of a ({n})"),
        ]
    checks += [
        ("lr.eta", cfg.lr.mode != "fixed" or cfg.lr.eta is not None, "required in fixed mode"),
        ("method.kind", cfg.method.kind != NpoSpec.kind or p.kind == GaussianProblem.kind,
         "npo requires a classification problem with a reference model"),
    ]
    for where, ok, message in checks:
        if not ok:
            raise ConfigError(where, message)


def config_from_dict(d: dict) -> RunConfig:
    """Parse and validate a configuration document; unknown keys are rejected."""
    v = _parse(d, "", RUN_FIELDS)
    seeds = Seeds(**v["seeds"])
    method = v["method"]
    kind = method.pop("kind")
    if kind == NpoSpec.kind:
        method = NpoSpec(**method)
    else:
        rng_seed = seeds.method if kind == combiners.RLW else None
        method = CombinerSpec(kind, **method, rng_seed=rng_seed)
    problem = v["problem"]
    problem = _PROBLEMS[problem.pop("kind")](**problem)
    v.update(seeds=seeds, lr=LrConfig(**v["lr"]), method=method, problem=problem)
    cfg = RunConfig(**v)
    _check_across_fields(cfg)
    return cfg


def _echo(holder, rows) -> dict:
    kind = getattr(holder, "kind", None)
    out = {}
    for name, typ, _, default, kinds in rows:
        if kinds is not None and kind not in kinds:
            continue
        value = getattr(holder, name)
        if isinstance(typ, tuple):
            value = _echo(value, typ)
        elif isinstance(value, tuple):
            value = list(value)
        elif value is None and default is OMIT:
            continue
        out[name] = value
    return out


def config_to_dict(cfg: RunConfig) -> dict:
    """The config document of ``cfg``; ``config_from_dict`` parses it back to ``cfg``."""
    return _echo(cfg, RUN_FIELDS)


def config_hash(cfg: RunConfig) -> str:
    text = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def run_name(cfg: RunConfig) -> str:
    s = cfg.seeds
    return f"{cfg.method.kind}_{s.data}-{s.init}-{s.method}_{config_hash(cfg)}"


# --------------------------------------------------------------------------
# Records


def _num(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _denum(x, name: str) -> float:
    """A float of an emitted record; null stands for a non-finite one."""
    value = math.nan if x is None else _number(x, False)
    if value is None:
        raise ValueError(f"record {name} must be a finite number or null, not {x!r}")
    return value


def _count(x, name: str) -> int:
    value = _number(x, True)
    if value is None or value < 0:
        raise ValueError(f"record {name} must be a non-negative integer, not {x!r}")
    return value


# How a trace cell of each type is written on a trace.csv line and parsed back
# from record.json.  Numbers only: record_to_json turns the nan and inf of the
# lines into null, which would corrupt a text cell; a code is an int column.
_CELLS = {int: ("%d", _count), float: ("%r", _denum)}

# The trace columns in order, with their types, which StepRow, the header, the
# trace.csv line and the record.json parse all follow.
TRACE_FIELDS = (
    ("step", int),
    ("loss_retain", float), ("loss_forget", float), ("acc_retain", float), ("acc_forget", float),
    ("lr", float), ("coeff_c", float),
    ("gnorm_retain", float), ("gnorm_forget", float), ("cos_rf", float),
    ("guard", int),
)
# the functional form: under the class syntax the types would be strings here
StepRow = NamedTuple("StepRow", TRACE_FIELDS)
StepRow.__doc__ = "One trace row; a named tuple because the loop builds one per step."

TRACE_COLUMNS = StepRow._fields
TRACE_HEADER = ",".join(TRACE_COLUMNS)
_TRACE_LINE = ",".join(_CELLS[typ][0] for _, typ in TRACE_FIELDS)
_TRACE_PARSE = tuple((name, _CELLS[typ][1]) for name, typ in TRACE_FIELDS)
_TRACE_COLUMNS_JSON = json.dumps(list(TRACE_COLUMNS), separators=(",", ":"))


class EvalResult(NamedTuple):
    """A model's final metrics, in the order every summary lists them.

    Its fields name the metrics wherever they are written or read: the
    ``final`` object of ``record.json``, the ``run`` and ``report`` lines and
    ``sweep_summary.csv``.
    """

    loss_retain: float
    loss_forget: float
    acc_retain: float
    acc_forget: float


# the pass counters of a record, as record.json names them
RUN_COUNTERS = ("forward_passes", "backward_passes", "probe_forward_passes", "guard_trips")


class ParetoPoint(namedtuple("ParetoPoint", "retain_loss forget_loss tag", defaults=("",))):
    """One model's (retain loss, forget loss) summary for dominance checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.retain_loss) and math.isfinite(self.forget_loss)):
            raise ValueError("pareto point losses must be finite")
        return self


class RunRecord(
    namedtuple(
        "RunRecord",
        ("config", "rows", *RUN_COUNTERS, "final", "params_digest", "final_params", "schema"),
        defaults=(None, SCHEMA_VERSION),
    )
):
    """A run's config echo, trace rows, pass counters, final metrics and parameters.

    It keeps an instance dict (no ``__slots__``), where ``trace_lines`` is cached.
    """

    @property
    def steps(self) -> int:
        return len(self.rows)

    def pareto_point(self, tag: str = "") -> ParetoPoint:
        return ParetoPoint(self.final.loss_retain, self.final.loss_forget, tag)

    @cached_property
    def trace_lines(self) -> tuple[str, ...]:
        """The rows as ``trace.csv`` lines, formatted once for both writers."""
        return tuple(_TRACE_LINE % row for row in self.rows)


def record_from_dict(d: dict) -> RunRecord:
    """Re-parse an emitted record, re-validating structure and counters.

    Raises ``ValueError`` for a document that ``record_to_json`` cannot have
    written: a wrong shape or type anywhere, config fields included.
    """
    if not isinstance(d, dict) or d.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"record schema must be {SCHEMA_VERSION}")
    if d.get("trace_columns") != list(TRACE_COLUMNS):
        raise ValueError("record trace columns do not match the schema")
    _parse(d["config"], "config", RUN_FIELDS)
    trace = d["trace"]
    if not isinstance(trace, list):
        raise ValueError("record trace must be a list")
    rows = []
    for raw in trace:
        if not isinstance(raw, list) or len(raw) != len(TRACE_COLUMNS):
            raise ValueError("trace row has the wrong width")
        rows.append(StepRow._make([parse(x, name) for x, (name, parse) in zip(raw, _TRACE_PARSE)]))
    final = d["final"]
    if not isinstance(final, dict) or final.keys() != set(EvalResult._fields):
        raise ValueError(f"record final must be an object of {EvalResult._fields}")
    if not isinstance(d["params_digest"], str):
        raise ValueError("record params_digest must be a string")
    return RunRecord(
        config=d["config"],
        rows=tuple(rows),
        final=EvalResult(*(_denum(final[name], name) for name in EvalResult._fields)),
        params_digest=d["params_digest"],
        **{key: _count(d[key], key) for key in RUN_COUNTERS},
    )


def record_to_json(record: RunRecord) -> str:
    """The record as one line of compact JSON, keys sorted; non-finite floats are null.

    The trace is spliced in from ``record.trace_lines``: a float's ``repr`` is
    also its JSON text, so only ``nan``, ``inf`` and ``-inf`` need replacing.
    Every other key sorts before ``"trace"``.
    """
    head = {
        "schema": record.schema,
        "config": record.config,
        **{key: getattr(record, key) for key in RUN_COUNTERS},
        "final": {name: _num(x) for name, x in zip(EvalResult._fields, record.final)},
        "params_digest": record.params_digest,
    }
    head = json.dumps(head, sort_keys=True, separators=(",", ":"), allow_nan=False)
    # an int cell is digits, and no finite float's repr holds an "n"
    trace = "],[".join(record.trace_lines).replace("-inf", "null").replace("inf", "null")
    trace = f"[[{trace.replace('nan', 'null')}]]" if record.rows else "[]"
    return f'{head[:-1]},"trace":{trace},"trace_columns":{_TRACE_COLUMNS_JSON}}}'


def record_from_json(text: str) -> RunRecord:
    return record_from_dict(json.loads(text))


def write_trace_csv(record: RunRecord, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join((TRACE_HEADER, *record.trace_lines)) + "\n")


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
    plain two-task gradient run.  Integer true division is correctly
    rounded, so the ratio is the float nearest the exact one.
    """
    observed = (
        record.forward_passes
        + 2 * record.backward_passes
        + 2 * record.probe_forward_passes
    )
    return observed / (6 * record.steps)


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

    The problem returns each gradient as a fresh array with its sum of
    squares, so it is adopted into a ``FlatGradient`` without a copy or a
    second pass.
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

    def retain_loss_grad(self, params):
        self._counters.forward += 1
        self._counters.backward += 1
        loss, grad, sq = self.problem.retain_loss_grad(params)
        return loss, _adopt_vector(FlatGradient, grad, params.layout, "gradient", sq)

    def forget_loss_grad(self, params):
        self._counters.forward += 1
        self._counters.backward += 1
        loss, grad, sq = self.problem.forget_loss_grad(params)
        return loss, _adopt_vector(FlatGradient, grad, params.layout, "gradient", sq)

    def probe_loss(self, params) -> float:
        self._counters.probe_forward += 1
        return self.problem.retain_loss(params)

    def evaluate(self, params) -> EvalResult:
        return EvalResult(
            self.problem.retain_loss(params), self.problem.forget_loss(params), math.nan, math.nan
        )


class _ClassificationTask:
    """Forget-one-class task over a finetuned MLP with minibatch streams."""

    has_accuracy = True

    def __init__(self, cfg: RunConfig, counters: _Counters, start: NoUnlearn):
        self.split, self.graph, self.initial_params = start
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
            self.npo = NpoLoss(self.graph, cfg.method.beta, self.initial_params)
            # frozen model: reference log-probs precomputed once per sample
            self._npo_ref = self.npo.reference_logprobs(self.split.forget)

    def retain_loss_grad(self, params):
        self._retain_batch = self.split.retain.take(self._retain_stream.next())
        self._counters.forward += 1
        loss = forward(self.graph, params, self._retain_batch)
        self._counters.backward += 1
        return loss, self.graph.backward()

    def forget_loss_grad(self, params):
        batch = self.split.forget.take(self._forget_stream.next())
        self._counters.forward += 1
        loss = forward(self.graph, params, batch)
        self._counters.backward += 1
        return loss, self.graph.backward()

    def npo_loss_grad(self, params):
        idx = self._forget_stream.next()
        batch = self.split.forget.take(idx)
        self._counters.forward += 1
        self._counters.backward += 1
        loss, grad = self.npo.loss_and_grad(params, batch, self._npo_ref[idx])
        # gradient-free diagnostics on matching minibatches, not counted; the
        # forget side is the cross-entropy of the NPO loss's own forward
        self._retain_batch = self.split.retain.take(self._retain_stream.next())
        loss_retain = forward(self.graph, params, self._retain_batch)
        return loss, grad, loss_retain, self.npo.cross_entropy

    def probe_loss(self, params) -> float:
        # probes reuse the minibatch that produced the current retain gradient
        self._counters.probe_forward += 1
        return forward(self.graph, params, self._retain_batch)

    def evaluate(self, params) -> EvalResult:
        return evaluate(self.graph, params, self.split)


def evaluate(graph: Graph, params: ParameterVector, split: ForgetRetainSplit) -> EvalResult:
    """Mean losses and argmax accuracies on both sides of a split."""

    def one(batch):
        loss = forward(graph, params, batch)
        pred = np.argmax(graph.logits, axis=1)
        return float(np.mean(pred == batch.labels)), loss

    acc_r, loss_r = one(split.retain)
    acc_f, loss_f = one(split.forget)
    return EvalResult(loss_r, loss_f, acc_r, acc_f)


def finetune(
    graph: Graph, params: ParameterVector, data: LabeledBatch, steps: int, eta: float
) -> ParameterVector:
    """Plain full-batch descent on the pooled cross-entropy.

    Produces the "no-unlearn" weights every classification run starts from
    (and the reference model for the preference-loss baseline).
    """
    # every value kept is checked for finiteness, so numpy's own overflow
    # warnings on the way to a non-finite one are noise; one errstate for
    # the whole loop, since entering one costs about as much as a check
    with np.errstate(all="ignore"):
        for step in range(steps):
            try:
                forward(graph, params, data)  # raises NumericError on a non-finite loss
                grad = graph.backward()
                params = axpy_update(params, grad, eta)
            except NumericError as exc:
                raise NumericAbort(step, str(exc), params) from None
    return params


class NoUnlearn(NamedTuple):
    """The start of a classification run: its split, its MLP and the finetuned weights.

    ``params.layout`` is ``graph.layout``, which keeps every layout check an
    identity test; a start pickled in one piece keeps that on the other side.
    """

    split: ForgetRetainSplit
    graph: Graph
    params: ParameterVector


def no_unlearn(cfg: RunConfig) -> NoUnlearn:
    """The start that every classification run of ``cfg`` begins from.

    It depends on ``cfg.seeds.data``, ``cfg.seeds.init`` and ``cfg.problem``
    alone, so runs that differ only in method, step size or step budget can
    share one, run after run (a graph is single-owner, not thread-safe).
    Raises ``NumericAbort`` when the finetune diverges.
    """
    prob = cfg.problem
    data = gen_gaussian_clusters(
        cfg.seeds.data, prob.classes, prob.per_class, prob.dim, prob.separation
    )
    graph, params0 = mlp_factory(cfg.seeds.init, [prob.dim, *prob.hidden, prob.classes])
    params = finetune(graph, params0, data, prob.finetune_steps, prob.finetune_eta)
    return NoUnlearn(split_forget_retain(data, prob.forget_class), graph, params)


# --------------------------------------------------------------------------
# The unlearning loop


def run_unlearning(cfg: RunConfig, start: NoUnlearn | None = None) -> RunRecord:
    """Execute one unlearning run and return its complete record.

    ``start`` is the ``no_unlearn(cfg)`` of a classification run when it was
    made elsewhere (a sweep shares one across its values); by default it is
    made here, deterministically in the config seeds.  Quad runs start from
    their configured point and ignore it.
    """
    counters = _Counters()
    if isinstance(cfg.problem, QuadProblemConfig):
        task = _QuadTask(cfg, counters)
    else:
        task = _ClassificationTask(cfg, counters, start if start is not None else no_unlearn(cfg))
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

    # every value the loop keeps is checked for finiteness, so numpy's own
    # overflow warnings on the way to a non-finite one are noise
    with np.errstate(all="ignore"):
        try:
            for step in range(cfg.steps):
                if is_npo:
                    _, direction, loss_retain, loss_forget = task.npo_loss_grad(params)
                    coeff = gnorm_r = gnorm_f = cos_rf = math.nan
                else:
                    loss_retain, g_r = task.retain_loss_grad(params)
                    loss_forget, g_f = task.forget_loss_grad(params)
                    if not (math.isfinite(loss_retain) and math.isfinite(loss_forget)):
                        raise NumericError("task loss is non-finite")
                    # cross-entropy on a saturated minibatch can round to exactly 0;
                    # the loss-normalization weights need a strictly positive floor
                    losses = (
                        (max(loss_retain, 1e-12), max(loss_forget, 1e-12)) if needs_losses else None
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
                    _, _, acc_retain, acc_forget = task.evaluate(params)

                rows.append(
                    StepRow(
                        step, loss_retain, loss_forget, acc_retain, acc_forget, eta, coeff,
                        gnorm_r, gnorm_f, cos_rf, lr_state.guard_trips - guard_before,
                    )
                )
                params = axpy_update(params, direction, eta)
            step = cfg.steps  # the final evaluation fails after the last step
            final = task.evaluate(params)
        except NumericError as exc:
            raise NumericAbort(step, str(exc), params) from None

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
