"""Unlearning loop, orchestration, metrics, Pareto tooling, and cost accounting.

A run is fully described by a :class:`RunConfig` (method, learning-rate mode,
step budget, seeds, problem).  Classification runs start from the
"no-unlearn" start that :func:`no_unlearn` makes - the forget/retain split,
the MLP and its weights finetuned on the pooled data - which runs with the
same data, init and problem can share; analytic quadratic-pair runs start
from a configured point.  Each step computes per-task gradients on fresh
minibatches (full batch for analytic problems; one kernel pass for both
minibatches when they have one size), combines them, optionally refreshes the
step size from retain probes, and applies ``theta <- theta - eta * g``.  The
result is a :class:`RunRecord` with one row per step, exact pass counters,
and final metrics; identical configs reproduce records bit for bit.

The loop advances a lockstep group of runs (:func:`lockstep_key`), as the
values of a sweep do; a lone run is a group of one.  The runs' parameters
are the rows of one read-only matrix, and a step's per-run values are
columns, one entry per run: one kernel pass with a run axis in front (or
one ``theta - a`` and one ``theta - b``) gives the losses and gradients,
one ``ddot`` per row the norms and cosines, ``combiners.coefficients``
each combiner kind's coefficients, and one broadcast direction formula and
one update ``theta - eta * d`` serve the whole matrix.  Each step appends
its columns to the group's trace as one flat tuple, from which each run
cuts its ``StepRow``s.  A run acts alone only on events: a step-size update on its
cadence (its probes are lone passes), an evaluation's result and a
failure.  Every operation has the operands of a lone run's, so every
record is bit for bit its lone run's, and a run that meets a non-finite
value aborts with its lone run's step and message while the others step on.
Artifacts are written whole or not at all (:func:`write_file`).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import combiners
from .autodiff import (
    FlatGradient,
    Graph,
    NumericError,
    _column,
    axpy_update,
    parameter_vector,
)
from .bench import (
    ForgetRetainSplit,
    LabeledBatch,
    gen_gaussian_clusters,
    mlp_factory,
    split_forget_retain,
)
from .objectives import FORGET_KINDS, UNBOUNDED_QUADRATIC, NpoLoss, QuadPairProblem
from .scheduler import LrState, maybe_update, step_size

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A run configuration field is missing, unknown, or invalid."""

    def __init__(self, fieldpath: str, message: str):
        self.fieldpath = fieldpath
        super().__init__(f"{fieldpath}: {message}" if fieldpath else message)


class NumericAbort(RuntimeError):
    """A loss or update became non-finite; carries the failing step index."""

    def __init__(self, step: int, message: str, last_params: np.ndarray | None = None):
        self.step = step
        self.last_params = last_params
        super().__init__(f"non-finite value at step {step}: {message}")


# --------------------------------------------------------------------------
# Configuration
#
# What a config document may hold - each field's JSON type, range, default
# and the kinds that read it - is one field table, which the holders below
# it, one parser and one echo all follow.

# the kinds that are not combiner kinds: the NPO baseline and the two problems
NPO = "npo"
GAUSSIAN = "gaussian"  # synthetic forget-one-class classification
QUAD_PAIR = "quad_pair"  # analytic quadratic pair; starts from theta0 (None: from b)

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


def _within(lo, hi):
    return (lambda v: lo <= v <= hi), f"must be >= {lo} and <= {hi}"


def _one_of(options):
    return (lambda v: v in options), f"must be one of {options}"


def _above(x):
    return (lambda v: v > x), f"must be > {x!r}"


_POSITIVE = _above(0)
# the most entries a Gaussian problem's data (classes*per_class*dim) and its
# MLP's parameter vector may each hold; the shipped config holds 7200 and 195
SIZE_CAP = 2**24
_GAUSSIAN = (GAUSSIAN,)
_QUAD = (QUAD_PAIR,)

# One row per field, checked in this order: (name, JSON type or the rows of a
# sub-object, (rule, message) or None, default, the kinds that read it or None
# for all).  A kind-gated row must follow its section's "kind" row; a field
# the kind does not read is rejected when given, holds None and is not echoed.
# A null stands for an absent field whose default is None or OMIT; a None
# default echoes as null.  The checks that relate two fields are in
# _check_across_fields.  A seed is below 2**64: its run's directory name
# spells it out, in 20 digits at most.
SEEDS_FIELDS = tuple(
    (name, INT, _within(0, 2**64 - 1), REQUIRED, None) for name in ("data", "init", "method")
)
# In auto mode eta is the step size until the first successful probe fit; an
# omitted eta falls back to probe_epsilon.
LR_FIELDS = (
    ("mode", STR, _one_of(("fixed", "auto")), REQUIRED, None),
    ("eta", FLOAT, _POSITIVE, None, None),
    ("update_period", INT, _at_least(1), 10, None),
    ("probe_epsilon", FLOAT, _POSITIVE, 1e-3, None),
)
METHOD_FIELDS = (
    ("kind", STR, _one_of((*combiners.KINDS, NPO)), REQUIRED, None),
    ("c", FLOAT, ((lambda v: 0 <= v <= 1), "must lie in [0, 1]"), REQUIRED,
     (combiners.GDIFF, combiners.SCHEDULED_GDIFF)),
    ("amplitude", FLOAT, None, 0.0, (combiners.SCHEDULED_GDIFF,)),
    ("decay", FLOAT, ((lambda v: 0 < v < 1), "must lie in (0, 1)"), REQUIRED,
     (combiners.SCHEDULED_GDIFF,)),
    # the NPO loss scales by 2/beta, which overflows at any smaller beta
    ("beta", FLOAT, _above(2 / sys.float_info.max), REQUIRED, (NPO,)),
)
PROBLEM_FIELDS = (
    ("kind", STR, _one_of((GAUSSIAN, QUAD_PAIR)), REQUIRED, None),
    # classes and dim are capped alone too, so that a huge one is named at its own path
    ("classes", INT, _within(2, SIZE_CAP), 3, _GAUSSIAN),
    ("per_class", INT, _at_least(1), 300, _GAUSSIAN),
    ("dim", INT, ((lambda v: v <= SIZE_CAP), f"must be <= {SIZE_CAP}"), 8, _GAUSSIAN),
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


_HOLDERS = {}  # the holder of each section's rows, which _parse builds


def _holder(name: str, rows):
    """The named tuple of every field in ``rows``; a field the section's kind
    does not read holds None."""
    cls = _HOLDERS[rows] = namedtuple(name, [row[0] for row in rows], module=__name__)
    return cls


Seeds = _holder("Seeds", SEEDS_FIELDS)
LrConfig = _holder("LrConfig", LR_FIELDS)
MethodSpec = _holder("MethodSpec", METHOD_FIELDS)
ProblemSpec = _holder("ProblemSpec", PROBLEM_FIELDS)
RunConfig = _holder("RunConfig", RUN_FIELDS)


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


def _parse(d, path: str, rows):
    """The holder of ``rows`` for the JSON object ``d`` at ``path``, every value checked."""
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object" if path else "config must be a JSON object")
    holder = _HOLDERS[rows]
    for key in d:
        if key not in holder._fields:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    values = {}
    for name, typ, check, default, kinds in rows:
        where = f"{path}.{name}" if path else name
        if kinds is not None and values["kind"] not in kinds:
            if name in d:
                raise ConfigError(where, f"not used by {path} kind {values['kind']!r}")
            values[name] = None
        elif d.get(name) is None and (default is None or default is OMIT):
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
    return holder(**values)


def _mlp_size(widths) -> int:
    """The parameter count of an MLP of ``widths``: each layer's weights and biases."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths, widths[1:]))


def _check_across_fields(cfg: RunConfig) -> None:
    p = cfg.problem
    if p.kind == GAUSSIAN:
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
        ("method.kind", cfg.method.kind != NPO or p.kind == GAUSSIAN,
         "npo requires a classification problem with a reference model"),
    ]
    for where, ok, message in checks:
        if not ok:
            raise ConfigError(where, message)


def config_from_dict(d: dict) -> RunConfig:
    """Parse and validate a configuration document; unknown keys are rejected."""
    cfg = _parse(d, "", RUN_FIELDS)
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
    steps = _parse(d["config"], "config", RUN_FIELDS).steps
    trace = d["trace"]
    if not isinstance(trace, list):
        raise ValueError("record trace must be a list")
    if len(trace) != steps:  # a run writes one row per step, an abort no record
        raise ValueError(f"record trace has {len(trace)} rows for {steps} steps")
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


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    It goes to a temporary name in the same directory, which is then renamed
    over ``path``, so a reader, or a write that fails midway, never sees a
    partial file; a process killed while writing leaves the temporary file
    behind.  A symlink at ``path`` is written through, as ``open(path, "w")``
    would, and an existing file this process may not write is refused as
    ``open`` would refuse it.  The new file has the default mode, and a hard
    link to the old one keeps the old text.
    """
    if os.path.islink(path):
        path = os.path.realpath(path)
    if not os.access(path, os.W_OK) and os.path.exists(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_trace_csv(record: RunRecord, path) -> None:
    write_file(path, "\n".join((TRACE_HEADER, *record.trace_lines)) + "\n")


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


def stationarity_residual(gnorm_retain: float, gnorm_forget: float, cos_rf: float) -> tuple[float, float]:
    """The Pareto-stationarity residual of a trace row, absolute and relative.

    It is ``min over lambda in [0, 1] of |lambda g_r - (1 - lambda) g_f|``,
    the min-norm point of the hull of ``{g_r, -g_f}`` (MGDA's closed form
    for two tasks), taken from the row's gradient norms and their cosine;
    the relative value divides it by ``min(|g_r|, |g_f|)``.  A zero gradient
    makes it 0 (and the relative value nan); an NPO row, whose norms are
    nan, and a row with an infinite norm give nan.  ``cos_rf`` is rounded,
    so near stationarity the value bottoms out at about 1e-8 relative,
    where the vectors' own residual may be far smaller.
    """
    nr, nf, cos = gnorm_retain, gnorm_forget, cos_rf
    if nr == 0 or nf == 0:
        return 0.0, math.nan
    if not math.isfinite(nr + nf + cos):
        return math.nan, math.nan
    # over norms scaled by the larger one, so that their squares cannot
    # overflow: |g_r + g_f|^2, and the minimizer lambda* = g_f.(g_r + g_f) /
    # |g_r + g_f|^2 before clipping
    top = max(nr, nf)
    r, f = nr / top, nf / top
    span = r * r + f * f + 2.0 * r * f * cos
    lam = (f * f + r * f * cos) / span if span > 0 else 1.0
    if lam <= 0:
        res = nf
    elif lam >= 1:
        res = nr
    else:  # |g_r| |g_f| sin(angle) / |g_r + g_f|
        res = r * nf * math.sqrt(max(0.0, (1.0 - cos) * (1.0 + cos))) / math.sqrt(span)
    return res, res / min(nr, nf)


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


def lockstep_key(cfg: RunConfig):
    """What the runs of one lockstep group share.

    A classification group shares its start (``seeds.data``, ``seeds.init``
    and ``problem``), its minibatches (``seeds.method`` and ``batch_size``),
    its evaluation cadence, its step count and whether its runs are NPO
    runs, whose step differentiates another loss.  A quad group shares its
    pair (``problem.a``, ``problem.b`` and ``problem.forget_kind``) and its
    step count; its runs' starts (``problem.theta0``), methods and step
    sizes may differ.
    """
    p = cfg.problem
    if p.kind == QUAD_PAIR:
        return (QUAD_PAIR, p.a, p.b, p.forget_kind, cfg.steps)
    s = cfg.seeds
    return (s.data, s.init, p, s.method, cfg.batch_size, cfg.eval_every, cfg.steps,
            cfg.method.kind == NPO)


def _nonfinite_rows(rows: np.ndarray):
    """The indices of the rows of ``rows`` that hold a non-finite entry; empty when none does."""
    # a finite sum of squares proves every entry finite (a nan entry makes it
    # nan, an infinite one inf); only a non-finite one, which huge finite
    # entries also give, is followed by the entry-wise test
    flat = rows.ravel()
    if math.isfinite(flat.dot(flat)):
        return ()
    return {i for i, row in enumerate(rows) if not np.isfinite(row).all()}


def _first_errors(*failures) -> dict:
    """The first error, by row, of each run that ``failures``, each a
    ``Graph.failed`` or like one, hold errors for, in order."""
    first = {}
    for failed in failures:
        for i, errors in enumerate(failed or ()):
            error = next((error for error in errors if error is not None), None)
            if error is not None:
                first.setdefault(i, error)
    return first


def bind_split(graph: Graph, split: ForgetRetainSplit) -> tuple:
    """Both sides of ``split``, retain first, checked once by ``graph.bind`` for every evaluation."""
    return tuple(graph.bind(side) for side in (split.retain, split.forget))


class _QuadTask:
    """Analytic quadratic-pair task: full-batch closed-form losses/gradients.

    The runs of a group share the pair and step from their own starts.  One
    step computes every run's ``theta - a`` and ``theta - b`` at once, as
    matrices with one row per run, and each row's sum of squares (one
    ``ddot`` per row), which proves the row finite when it is finite and
    gives its norm.  The vectors have the problem's ``dim`` entries,
    which the config checks.
    """

    has_accuracy = False

    def __init__(self, cfg: RunConfig):
        prob = cfg.problem
        self.problem = QuadPairProblem(
            np.array(prob.a), np.array(prob.b), prob.forget_kind
        )

    def initial_params(self, cfg: RunConfig) -> np.ndarray:
        theta0 = cfg.problem.theta0
        return parameter_vector(theta0 if theta0 is not None else cfg.problem.b)

    def step(self, runs, theta) -> tuple:
        """``(loss_r, loss_f, norm_r, norm_f, failed, g_r, g_f)``: each run's losses
        and gradient norms as columns, the error of each run that met one by
        row, and the gradient matrices."""
        loss_r, g_r, sq_r = self.problem.retain_loss_grads(theta)
        loss_f, g_f, sq_f = self.problem.forget_loss_grads(theta)
        norm_r, norm_f = list(map(math.sqrt, sq_r)), list(map(math.sqrt, sq_f))
        failed = {}
        # every sum is >= 0, so the norms' sums are finite when every sum is,
        # and then so is every loss, each >= 0 too
        if not math.isfinite(sum(norm_r) + sum(norm_f)):
            for i, (lr, lf) in enumerate(zip(loss_r, loss_f)):
                if not (np.isfinite(g_r[i]).all() and np.isfinite(g_f[i]).all()):
                    failed[i] = NumericError("gradient entries must be finite")
                elif not math.isfinite(lr + lf):
                    failed[i] = NumericError("task loss is non-finite")
        return loss_r, loss_f, norm_r, norm_f, failed, g_r, g_f

    def probe_loss(self, params) -> float:
        return self.problem.retain_loss(params)

    def evaluate(self, theta) -> list:
        return [
            EvalResult(self.problem.retain_loss(p), self.problem.forget_loss(p), math.nan, math.nan)
            for p in theta
        ]


class _ClassificationTask:
    """Forget-one-class task over a finetuned MLP, for a lockstep group of runs.

    The runs share the start and the minibatch streams, so each step draws
    its minibatches once and serves every run from one kernel pass, and the
    split is bound once for every evaluation.
    """

    has_accuracy = True

    def __init__(self, cfgs, start: NoUnlearn):
        self.split, self.graph, self._start = start
        cfg = cfgs[0]
        self._retain_stream = _BatchStream(
            self.split.retain.n, cfg.batch_size, [cfg.seeds.method, 0]
        )
        self._forget_stream = _BatchStream(
            self.split.forget.n, cfg.batch_size, [cfg.seeds.method, 1]
        )
        self._bound_split = bind_split(self.graph, self.split)
        self._retain_batch: LabeledBatch | None = None
        self._probe_rows: dict | None = None  # the step's retain minibatch, bound at its first probe
        self._npo_ref: np.ndarray | None = None
        if cfg.method.kind == NPO:
            # frozen model: reference log-probs precomputed once per sample, for every run
            reference = NpoLoss(self.graph, cfg.method.beta, self._start)
            self._npo_ref = reference.reference_logprobs(self.split.forget)

    def initial_params(self, cfg: RunConfig) -> np.ndarray:
        return self._start

    def _passes(self, batches) -> list:
        """The bound passes over ``batches``: one stacked pass when they have one size."""
        if batches[0].n == batches[1].n:
            return [self.graph.bind(*batches)]
        return [self.graph.bind(b) for b in batches]

    def step(self, runs, theta) -> tuple:
        """``(loss_r, loss_f, norm_r, norm_f, failed, g_r, g_f)`` of one step, from one kernel pass over every run.

        The losses and gradient norms are columns, one entry per run; ``g_r``
        and ``g_f`` are the retain and forget gradients, the rows of
        read-only matrices.  An NPO run's losses are the retain and forget
        minibatches' cross-entropy, its norms nan, and its NPO gradient is
        its row of ``g_r``, ``g_f`` being None.  ``failed`` holds, by row,
        the error each run that met a non-finite value would raise first in
        its lone passes; its entries of the rest are not to be read.  The
        lone order is retain forward, retain gradient, forget forward,
        forget gradient; for NPO it is forget forward, NPO loss, forget
        gradient, retain forward.
        """
        self._probe_rows = None
        if self._npo_ref is not None:
            idx = self._forget_stream.next()
            forget = self.split.forget.take(idx)
            # gradient-free diagnostics, not counted: the retain minibatch's cross-entropy
            retain = self._retain_batch = self.split.retain.take(self._retain_stream.next())
            return self._npo_step(runs, theta, forget, retain, self._npo_ref[idx])
        retain = self._retain_batch = self.split.retain.take(self._retain_stream.next())
        forget = self.split.forget.take(self._forget_stream.next())
        # each pass gives every run's losses and one gradient matrix per group
        losses, rows, norms, failed = [], [], [], []
        for bindings in self._passes((retain, forget)):
            losses += zip(*self.graph.run(theta, bindings))
            flat, flat_norms = self.graph.backward()
            rows.extend(flat.swapaxes(0, 1))
            norms += zip(*flat_norms)
            failed.append(self.graph.failed)
        (loss_r, loss_f), (g_r, g_f), (norm_r, norm_f) = losses, rows, norms
        return loss_r, loss_f, norm_r, norm_f, _first_errors(*failed), g_r, g_f

    def _npo_step(self, runs, theta, forget, retain, ref) -> tuple:
        passes = self._passes((forget, retain))
        cross = self.graph.run(theta, passes[0])
        forward_failed = self.graph.failed
        npo_failed = None  # each run's NPO loss error, once one fails
        dlp = np.zeros((len(runs), forget.n))  # a run whose forget forward failed keeps a zero row
        for i, (run, lp) in enumerate(zip(runs, self.graph.lp)):
            try:
                if not (forward_failed and forward_failed[i][0]):
                    run.npo.score(lp[: forget.n], ref)
                    dlp[i] = run.npo.upstream()
            except NumericError as exc:
                npo_failed = npo_failed or [()] * len(runs)
                npo_failed[i] = (exc,)
        flat, _ = self.graph.backward(dlp, 1)
        # an NPO loss error is read first, though a lone run meets it after its
        # forget forward: that forward was finite, and the run's zero dlp row
        # gives it a zero gradient, so its forget group records no error
        failed = [npo_failed, self.graph.failed]
        if len(passes) > 1:
            cross = [f + r for f, r in zip(cross, self.graph.run(theta, passes[1]))]
            failed.append(self.graph.failed)
        # each run's forget and retain cross-entropy, as the passes order them
        loss_f, loss_r = zip(*cross)
        nans = [math.nan] * len(runs)
        return loss_r, loss_f, nans, nans, _first_errors(*failed), flat[:, 0], None

    def probe_loss(self, params) -> float:
        # probes reuse the retain minibatch of the step's gradients, bound once per step
        if self._probe_rows is None:
            self._probe_rows = self.graph.bind(self._retain_batch)
        return self.graph.run(params, self._probe_rows)[0]

    def evaluate(self, theta) -> list:
        """Each run's metrics, or its error, from one pass per side of the split over every row of ``theta``."""
        return evaluate(self.graph, theta, self.split, self._bound_split)


def evaluate(graph: Graph, params, split: ForgetRetainSplit, bound=None) -> list:
    """Mean losses and argmax accuracies on both sides of a split.

    ``params`` is a matrix whose rows are parameter vectors, evaluated in
    one pass per side and given one result each: its ``EvalResult``, or the
    ``NumericError`` its lone evaluation would raise first, the retain
    side's before the forget side's.  ``bound`` is ``bind_split(graph,
    split)`` when the split is bound once for many evaluations.
    """
    sides, failed = [], []
    for batch, bindings in zip((split.retain, split.forget), bound or bind_split(graph, split)):
        losses = graph.run(params, bindings)
        failed.append(graph.failed)
        sides.append([
            (loss, float(np.mean(np.argmax(logits, axis=1) == batch.labels)))
            for (loss,), logits in zip(losses, graph.logits)
        ])
    results = [EvalResult(loss_r, loss_f, acc_r, acc_f) for (loss_r, acc_r), (loss_f, acc_f) in zip(*sides)]
    for i, error in _first_errors(*failed).items():
        results[i] = error
    return results


def finetune(
    graph: Graph, params: np.ndarray, data: LabeledBatch, steps: int, eta: float
) -> np.ndarray:
    """Plain full-batch descent on the pooled cross-entropy.

    Produces the "no-unlearn" weights every classification run starts from
    (and the reference model for the preference-loss baseline).
    """
    # every value kept is checked for finiteness, so numpy's own overflow
    # warnings on the way to a non-finite one are noise; one errstate for
    # the whole loop, since entering one costs about as much as a check
    bindings = graph.bind(data)
    with np.errstate(all="ignore"):
        for step in range(steps):
            try:
                graph.run(params, bindings)  # raises NumericError on a non-finite loss
                (grad,) = graph.backward()
                params = axpy_update(params, grad, eta)
            except NumericError as exc:
                raise NumericAbort(step, str(exc), params) from None
    return params


class NoUnlearn(NamedTuple):
    """The start of a classification run: its split, its MLP and the finetuned weights."""

    split: ForgetRetainSplit
    graph: Graph
    params: np.ndarray


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


class _Run:
    """One config in the unlearning loop: its state between events, its trace and its outcome.

    Its parameters are its row of the group's parameter matrix, and its
    trace rows are cut from the group's trace columns (``_regroup``).  A
    constant rule's coefficient is taken here, once.
    """

    __slots__ = ("cfg", "probes", "lr_state", "rows", "acc", "coeff", "npo", "outcome", "_task")

    def __init__(self, cfg: RunConfig, task):
        self.cfg = cfg
        self.probes = 0  # gradient-free probe passes
        self.lr_state = LrState(cfg.lr.eta)
        self.rows: list[StepRow] = []
        self.acc = (math.nan, math.nan)  # the latest evaluation's retain and forget accuracy
        self.coeff = math.nan  # a constant rule's coefficient; an NPO run has none
        self.npo = (
            NpoLoss(task.graph, cfg.method.beta, task.initial_params(cfg)) if cfg.method.kind == NPO else None
        )
        self.outcome = None  # the exception that ended the run, else its record
        self._task = task
        if cfg.method.kind in combiners.CONSTANT:
            try:
                self.coeff = combiners.coefficient(cfg.method, None, None, math.nan, math.nan)[0]
            except Exception as exc:  # a rule that fails ends its run alone
                self.end(0, exc, task.initial_params(cfg))

    def probe_loss(self, params) -> float:
        self.probes += 1
        return self._task.probe_loss(params)

    def end(self, step: int, exc: Exception, params) -> None:
        """End the run with ``exc``, met at ``step`` from ``params``: a numeric error as a ``NumericAbort``."""
        self.outcome = NumericAbort(step, str(exc), params) if isinstance(exc, NumericError) else exc

    def finish(self, final, params) -> None:
        if isinstance(final, Exception):
            raise final
        # each step makes a forward and a backward pass per task: retain and
        # forget, or the NPO loss's forget side alone
        passes = len(self.rows) * (1 if self.npo is not None else 2)
        self.outcome = RunRecord(
            config=config_to_dict(self.cfg),
            rows=tuple(self.rows),
            forward_passes=passes,
            backward_passes=passes,
            probe_forward_passes=self.probes,
            guard_trips=self.lr_state.guard_trips,
            final=final,
            params_digest=hashlib.sha256(params.tobytes()).hexdigest(),
            final_params=params,
        )


_ROW = partial(tuple.__new__, StepRow)  # a StepRow from a tuple of its cells, made in C


def _regroup(live, theta, trace) -> tuple:
    """The runs of ``live`` still going and their rows of ``theta``, once each has
    cut its rows from ``trace``, one flat tuple per step: the step, then each field's column."""
    keep = [i for i, run in enumerate(live) if run.outcome is None]
    if trace:
        # every step's entry at each place; run i's cells are at i, i + n, ...
        steps, *cells = zip(*trace)
        for i, run in enumerate(live):
            if run.outcome is None:
                run.rows += map(_ROW, zip(steps, *cells[i :: len(live)]))
    if len(keep) < len(live):
        theta = theta[keep]
        theta.flags.writeable = False
    return [live[i] for i in keep], theta


def _plan(live) -> tuple:
    """What the steps of the group ``live`` read until it changes, a column being one entry per run.

    The constant rules' coefficient column (nan elsewhere); the rules of
    ``combiners.group_coefficients``, one per other combiner kind;
    which rows take NGDiff's unit form, or None; the step-size column and
    its broadcast form; the automatic runs' ``(update period, rows)``; the
    accuracy columns; and a column of zeros and one of nans.
    """
    kinds, periods = {}, {}
    for i, run in enumerate(live):
        if run.npo is None and run.cfg.method.kind not in combiners.CONSTANT:
            kinds.setdefault(run.cfg.method.kind, []).append(i)
        if run.cfg.lr.mode == "auto":
            periods.setdefault(run.cfg.lr.update_period, []).append(i)
    rules = [(kind, None if len(rows) == len(live) else rows, [live[i].cfg.method for i in rows],
              [live[i].cfg.seeds.method for i in rows]) for kind, rows in kinds.items()]
    normalized = [run.cfg.method.kind == combiners.NGDIFF for run in live]
    etas = [step_size(run.lr_state, run.cfg.lr) for run in live]
    return ([run.coeff for run in live], rules, normalized if any(normalized) else None, etas, _column(etas),
            list(periods.items()), *zip(*[run.acc for run in live]), [0] * len(live), [math.nan] * len(live))


def _updated(step, live, rows, theta, directions, loss_r, guards, etas, failed) -> tuple:
    """The guard and step-size columns once each automatic run at ``rows`` that
    has not failed has probed along its direction row on its cadence step ``step``."""
    guards, etas = list(guards), list(etas)
    for i in rows:
        run, direction = live[i], directions[i]
        if i not in failed:
            before = run.lr_state.guard_trips
            direction = tuple.__new__(FlatGradient, (direction, math.sqrt(direction.dot(direction))))
            try:
                run.lr_state = maybe_update(run.lr_state, step, run.cfg.lr, run.probe_loss, theta[i], direction, loss_r[i])
            except Exception as exc:
                failed[i] = exc
                continue
            guards[i] = run.lr_state.guard_trips - before
            etas[i] = step_size(run.lr_state, run.cfg.lr)
    return guards, etas


def run_unlearning(cfg, start: NoUnlearn | None = None):
    """Execute unlearning runs and return their complete records.

    ``cfg`` is one config, whose record is returned and whose abort raises
    its ``NumericAbort``; or a sequence of configs with one
    ``lockstep_key``, which step in lockstep, with one outcome returned per
    config, in order: its record, or the exception that ended it (a
    ``NumericAbort`` on a numeric abort).  A lone run is a group of one.
    A step's per-run values are columns, one entry per run (see the module
    docstring), and a run acts alone only on its events: a step-size update
    on its cadence, an evaluation's result and a failure, which ends it
    while the others step on.  Every run's record is bit for bit its lone
    run's.  ``start`` is the ``no_unlearn`` of a classification run
    when it was made elsewhere (a sweep shares one across its values); by
    default it is made here, deterministically in the config seeds.  Quad
    runs start from their configured point and ignore it.
    """
    lone = isinstance(cfg, RunConfig)
    cfgs = [cfg] if lone else list(cfg)
    if len({lockstep_key(c) for c in cfgs}) != 1:
        raise ValueError("runs in lockstep need one lockstep_key, and at least one run")
    first = cfgs[0]
    if first.problem.kind == QUAD_PAIR:
        task = _QuadTask(first)
    else:
        task = _ClassificationTask(cfgs, start if start is not None else no_unlearn(first))
    runs = live = [_Run(c, task) for c in cfgs]
    theta = np.array([task.initial_params(c) for c in cfgs])  # one row of parameters per live run
    theta.flags.writeable = False
    every = first.eval_every if task.has_accuracy else 0
    trace, regroup = [], True

    # every value the loop keeps is checked for finiteness, so numpy's own
    # overflow warnings on the way to a non-finite one are noise
    with np.errstate(all="ignore"):
        for step in range(first.steps):
            if regroup:  # the group starts, or a run has left it
                live, theta = _regroup(live, theta, trace)
                if not live:
                    break
                trace, regroup = [], False
                base, rules, normalized, etas, eta_col, periods, acc_r, acc_f, zeros, nans = _plan(live)
            try:
                loss_r, loss_f, norm_r, norm_f, failed, g_r, g_f = task.step(live, theta)
            except Exception as exc:  # a shared failure ends every run still going
                for run, params in zip(live, theta):
                    run.end(step, exc, params)
                break
            evaluated = ()  # a run meets its evaluation's error after its step size
            if every and step % every == 0:
                evaluated = task.evaluate(theta)
                for run, result in zip(live, evaluated):
                    if not isinstance(result, Exception):
                        run.acc = result.acc_retain, result.acc_forget
                acc_r, acc_f = zip(*[run.acc for run in live])
            columns = g_r, g_f, norm_r, norm_f, loss_r, loss_f
            coeffs = combiners.group_coefficients(rules, base, step, columns, failed) if rules else base
            if g_f is None:  # an NPO step's one gradient is its direction
                directions, cos = g_r, nans
            else:
                cos = combiners.cosines(g_r, g_f, norm_r, norm_f)
                directions = combiners.directions(coeffs, g_r, g_f, norm_r, norm_f, normalized)
                directions.flags.writeable = False
                for i in _nonfinite_rows(directions):
                    failed.setdefault(i, NumericError("gradient entries must be finite"))
            guards, updated = zeros, []
            for period, rows in periods:
                if step % period == 0:
                    guards, etas = _updated(step, live, rows, theta, directions, loss_r, guards, etas, failed)
                    eta_col = _column(etas)
                    updated += rows
            for i, result in enumerate(evaluated):
                if isinstance(result, Exception):
                    failed.setdefault(i, result)
            for i in updated:
                if not math.isfinite(etas[i]):
                    failed.setdefault(i, NumericError("step size must be finite"))
            # the update of every row: theta - eta * direction
            stepped = theta - eta_col * directions
            for i in _nonfinite_rows(stepped):
                failed.setdefault(i, NumericError("parameter entries must be finite"))
            stepped.flags.writeable = False
            # one flat tuple of numbers, which the collector stops tracking at its first pass
            trace.append((step, *loss_r, *loss_f, *acc_r, *acc_f, *etas, *coeffs, *norm_r, *norm_f, *cos, *guards))
            for i, exc in failed.items():
                live[i].end(step, exc, theta[i])
                regroup = True
            theta = stepped
        else:  # the final evaluation fails after the last step
            live, theta = _regroup(live, theta, trace)
            for run, params, final in zip(live, theta, task.evaluate(theta) if live else ()):
                try:
                    run.finish(final, params)
                except Exception as exc:
                    run.end(first.steps, exc, params)

    if lone and isinstance(runs[0].outcome, Exception):
        raise runs[0].outcome
    return runs[0].outcome if lone else [run.outcome for run in runs]
