"""Spans and counts around the public entry points of each ``ngdiff`` module.

The benchmark wraps entry points from the outside: it swaps a timing
wrapper in for a function or method on its module or class (and for every
``from x import f`` copy of it inside the package) while a traced pass
runs, and puts the originals back afterwards.  The package itself is not
edited.  An entry point that no longer exists is skipped and the metrics
that need it are reported absent with the reason, so the benchmark keeps
working while the internals change.

Each span is ``(name, start, end, parent, attrs)``, kept in memory.  Sweep
children run in a process pool; each child task records into a fresh
recorder and writes its spans to a file when the task ends, and the parent
merges those files after the pass.  This relies on the pool forking the
parent, which inherits the installed wrappers; under another start method
the children run untraced and the missing child spans are reported.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import statistics
import sys
import time
import uuid
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# The recorder of this process while a traced pass runs, else None.  It is
# module state because the wrappers run inside ngdiff's own call stack and
# inside forked pool children, where nothing else can hand it to them.
_ACTIVE: "Recorder | None" = None


class Recorder:
    """Spans, counts and maxima of one process during one traced pass."""

    def __init__(self, dump_dir: Path, cause: str | None = None):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.cause = cause
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def high(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def part(self) -> dict:
        return {"pid": self.pid, "cause": self.cause, "spans": self.spans,
                "counts": dict(self.counts), "maxima": self.maxima}


# --------------------------------------------------------------------------
# Hooks: per-target extras recorded next to the span


def _rows(rec, args, kwargs, result):
    bindings = args[2] if len(args) > 2 else kwargs.get("bindings")
    features = (bindings or {}).get("features")
    if features is not None:
        rec.counts["autodiff.forward_rows"] += len(features)


def _combined(rec, args, kwargs, result):
    rec.counts["combiners.degenerate"] += bool(getattr(result, "degenerate", False))
    rec.counts["combiners.clamped"] += bool(getattr(result, "clamped", False))


def _lr_updated(rec, args, kwargs, result):
    before = args[0] if args else kwargs.get("state")
    trips = getattr(result, "guard_trips", 0) - getattr(before, "guard_trips", 0)
    rec.counts["scheduler.guard_trips"] += trips
    eta = getattr(result, "eta", None)
    if eta is not None:
        rec.high("scheduler.eta_max", float(eta))


def _digest(obj, h) -> None:
    """Hash the array content of ``obj``; objects without arrays add their type."""
    if hasattr(obj, "tobytes"):
        h.update(obj.tobytes())
    elif isinstance(obj, (int, float, str)):
        h.update(repr(obj).encode())
    else:
        h.update(type(obj).__name__.encode())
        for name in ("data", "features", "labels"):
            value = getattr(obj, name, None)
            if value is not None:
                _digest(value, h)


def _finetune_key(args, kwargs) -> dict:
    # (initial params, data, steps, eta) stands for (seeds.data, seeds.init, problem)
    h = hashlib.sha256()
    for arg in (*args, *kwargs.values()):
        _digest(arg, h)
    return {"key": h.hexdigest()[:16]}


def _sweep_jobs(args, kwargs) -> dict:
    return {"jobs": int(getattr(args[0], "jobs", 1) or 1)}


def _count_probe_forwards(args, kwargs):
    """Wrap the retain-loss callable ``probe_losses`` receives, counting calls."""
    if not args:
        return args, kwargs
    loss = args[0]

    def counted(params):
        if _ACTIVE is not None:
            _ACTIVE.counts["scheduler.probe_forwards"] += 1
        return loss(params)

    return (counted, *args[1:]), kwargs


@dataclass(frozen=True)
class Target:
    """An entry point: ``module`` and dotted ``path`` inside it."""

    span: str
    module: str
    path: str
    after: object = None  # (recorder, args, kwargs, result) -> None
    attrs: object = None  # (args, kwargs) -> dict stored on the span
    rewrite: object = None  # (args, kwargs) -> (args, kwargs)
    boundary: bool = False  # runs in pool children: record there, dump to a file

    @property
    def where(self) -> str:
        return f"{self.module}.{self.path}"


TARGETS = (
    Target("autodiff.forward", "ngdiff.autodiff", "Graph.run", after=_rows),
    Target("autodiff.backward", "ngdiff.autodiff", "Graph.backward"),
    Target("autodiff.axpy", "ngdiff.autodiff", "axpy_update"),
    Target("objectives.npo", "ngdiff.objectives", "NpoLoss.loss_and_grad"),
    Target("objectives.npo", "ngdiff.objectives", "NpoLoss.reference_logprobs"),
    Target("objectives.quad", "ngdiff.objectives", "QuadPairProblem.retain_loss"),
    Target("objectives.quad", "ngdiff.objectives", "QuadPairProblem.retain_grad"),
    Target("objectives.quad", "ngdiff.objectives", "QuadPairProblem.forget_loss"),
    Target("objectives.quad", "ngdiff.objectives", "QuadPairProblem.forget_grad"),
    Target("bench.take", "ngdiff.bench", "LabeledBatch.take"),
    Target("bench.gen", "ngdiff.bench", "gen_gaussian_clusters"),
    Target("combiners.combine", "ngdiff.combiners", "combine", after=_combined),
    Target("scheduler.update", "ngdiff.scheduler", "maybe_update", after=_lr_updated),
    Target("scheduler.probe", "ngdiff.scheduler", "probe_losses", rewrite=_count_probe_forwards),
    Target("engine.finetune", "ngdiff.engine", "finetune", attrs=_finetune_key),
    Target("engine.evaluate", "ngdiff.engine", "evaluate"),
    Target("engine.evaluate", "ngdiff.engine", "_ClassificationTask.evaluate"),
    Target("engine.evaluate", "ngdiff.engine", "_QuadTask.evaluate"),
    Target("engine.loop", "ngdiff.engine", "run_unlearning"),
    Target("cli.config", "ngdiff.engine", "config_from_dict"),
    Target("cli.config", "ngdiff.cli", "_load_config_dict"),
    Target("cli.execute", "ngdiff.cli", "_execute_run"),
    Target("cli.write", "ngdiff.engine", "write_trace_csv"),
    Target("cli.write", "ngdiff.engine", "record_to_json"),
    Target("cli.sweep", "ngdiff.cli", "cmd_sweep", attrs=_sweep_jobs),
    Target("cli.sweep_child", "ngdiff.cli", "_sweep_child", boundary=True),
)


def _wrap(target: Target, fn):
    def wrapper(*args, **kwargs):
        global _ACTIVE
        rec = _ACTIVE
        if rec is None:
            return fn(*args, **kwargs)
        forked = target.boundary and rec.pid != os.getpid()
        if forked:
            # a pool child inherited the parent's recorder: record this task
            # into its own, named after the parent span that caused it
            parent_rec = rec
            cause = parent_rec.spans[parent_rec.stack[-1]][0] if parent_rec.stack else None
            rec = _ACTIVE = Recorder(parent_rec.dump_dir, cause)
        if target.rewrite is not None:
            args, kwargs = target.rewrite(args, kwargs)
        index = rec.open(target.span, target.attrs(args, kwargs) if target.attrs else None)
        try:
            result = fn(*args, **kwargs)
            if target.after is not None:
                target.after(rec, args, kwargs, result)
        finally:
            rec.close(index)
            if forked:
                rec.dump_dir.mkdir(parents=True, exist_ok=True)
                path = rec.dump_dir / f"child-{os.getpid()}-{uuid.uuid4().hex}.json"
                path.write_text(json.dumps(rec.part()))
                _ACTIVE = parent_rec
        return result

    for name in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, name, getattr(fn, name, None))
    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Installs wrappers for every target that exists; remembers the rest."""

    def __init__(self):
        self.absent: dict[str, str] = {}  # target -> reason
        self._found: list[tuple[Target, object, str, object]] = []  # target, owner, attr, original
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                owner = module
                *outer, attr = target.path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent[target.where] = "entry point not found"
                continue
            if not callable(original):
                self.absent[target.where] = "entry point is not callable"
                continue
            self._found.append((target, owner, attr, original))
        self._installed: list[tuple[object, str, object]] = []

    def missing(self, *spans: str) -> str | None:
        """Why a target of one of these span names is absent; None if none is."""
        for target in TARGETS:
            if target.span in spans and target.where in self.absent:
                return f"{target.where}: {self.absent[target.where]}"
        return None

    def start(self, dump_dir: Path) -> None:
        global _ACTIVE
        for target, owner, attr, original in self._found:
            wrapper = _wrap(target, original)
            if isinstance(owner, type):
                self._swap(owner, attr, wrapper)
            else:
                # also every `from module import name` copy inside the package
                for name, module in list(sys.modules.items()):
                    if name.split(".")[0] == "ngdiff" and getattr(module, attr, None) is original:
                        self._swap(module, attr, wrapper)
        _ACTIVE = Recorder(dump_dir)

    def _swap(self, owner, attr, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def stop(self) -> list[dict]:
        """Uninstall, and return this process's part plus every child's."""
        global _ACTIVE
        rec, _ACTIVE = _ACTIVE, None
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        parts = [rec.part()]
        for path in sorted(rec.dump_dir.glob("child-*.json")):
            parts.append(json.loads(path.read_text()))
        return parts


# --------------------------------------------------------------------------
# Aggregation


@dataclass
class Layers:
    """Per-name totals over every process part of one traced pass."""

    calls: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)  # outermost spans only
    self_time: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    maxima: dict = field(default_factory=dict)
    keys: dict = field(default_factory=lambda: defaultdict(list))
    jobs_wall: float = 0.0
    spans: int = 0


def aggregate(parts: list[dict]) -> Layers:
    layers = Layers()
    for part in parts:
        spans = part["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                children[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            layers.calls[name] += 1
            layers.self_time[name] += duration - children[i]
            if parent is None or spans[parent][0] != name:
                layers.total[name] += duration
            if attrs and "key" in attrs:
                layers.keys[name].append(attrs["key"])
            if attrs and "jobs" in attrs:
                layers.jobs_wall += attrs["jobs"] * duration
        layers.spans += len(spans)
        layers.counts.update(part["counts"])
        for name, value in part["maxima"].items():
            layers.maxima[name] = max(value, layers.maxima.get(name, value))
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _repeats(keys: list) -> int:
    return len(keys) - len(set(keys))


# metric -> (unit, the span names it needs, value from Layers)
PER_LAYER = {
    "autodiff.forward_calls": ("count", ("autodiff.forward",), lambda L: L.calls["autodiff.forward"]),
    "autodiff.forward_s": ("s", ("autodiff.forward",), lambda L: L.self_time["autodiff.forward"]),
    "autodiff.forward_rows": ("rows", ("autodiff.forward",), lambda L: L.counts["autodiff.forward_rows"]),
    "autodiff.backward_calls": ("count", ("autodiff.backward",), lambda L: L.calls["autodiff.backward"]),
    "autodiff.backward_s": ("s", ("autodiff.backward",), lambda L: L.self_time["autodiff.backward"]),
    "autodiff.axpy_calls": ("count", ("autodiff.axpy",), lambda L: L.calls["autodiff.axpy"]),
    "autodiff.axpy_s": ("s", ("autodiff.axpy",), lambda L: L.self_time["autodiff.axpy"]),
    "objectives.npo_calls": ("count", ("objectives.npo",), lambda L: L.calls["objectives.npo"]),
    "objectives.npo_s": ("s", ("objectives.npo",), lambda L: L.self_time["objectives.npo"]),
    "objectives.quad_calls": ("count", ("objectives.quad",), lambda L: L.calls["objectives.quad"]),
    "objectives.quad_s": ("s", ("objectives.quad",), lambda L: L.self_time["objectives.quad"]),
    "bench.take_calls": ("count", ("bench.take",), lambda L: L.calls["bench.take"]),
    "bench.take_s": ("s", ("bench.take",), lambda L: L.self_time["bench.take"]),
    "bench.gen_calls": ("count", ("bench.gen",), lambda L: L.calls["bench.gen"]),
    "bench.gen_s": ("s", ("bench.gen",), lambda L: L.total["bench.gen"]),
    "combiners.combine_calls": ("count", ("combiners.combine",), lambda L: L.calls["combiners.combine"]),
    "combiners.combine_s": ("s", ("combiners.combine",), lambda L: L.self_time["combiners.combine"]),
    "combiners.degenerate_ratio": ("ratio", ("combiners.combine",),
                                   lambda L: _ratio(L.counts["combiners.degenerate"], L.calls["combiners.combine"])),
    "combiners.clamped_ratio": ("ratio", ("combiners.combine",),
                                lambda L: _ratio(L.counts["combiners.clamped"], L.calls["combiners.combine"])),
    "scheduler.update_events": ("count", ("scheduler.probe",), lambda L: L.calls["scheduler.probe"]),
    "scheduler.probe_forwards": ("count", ("scheduler.probe",), lambda L: L.counts["scheduler.probe_forwards"]),
    "scheduler.self_s": ("s", ("scheduler.update", "scheduler.probe"),
                         lambda L: L.self_time["scheduler.update"] + L.self_time["scheduler.probe"]),
    "scheduler.guard_ratio": ("ratio", ("scheduler.update", "scheduler.probe"),
                              lambda L: _ratio(L.counts["scheduler.guard_trips"], L.calls["scheduler.probe"])),
    "scheduler.eta_max": ("1", ("scheduler.update",), lambda L: L.maxima.get("scheduler.eta_max", 0.0)),
    "engine.finetune_calls": ("count", ("engine.finetune",), lambda L: L.calls["engine.finetune"]),
    "engine.finetune_s": ("s", ("engine.finetune",), lambda L: L.total["engine.finetune"]),
    "engine.finetune_repeat_ratio": ("ratio", ("engine.finetune",),
                                     lambda L: _ratio(_repeats(L.keys["engine.finetune"]), L.calls["engine.finetune"])),
    "engine.eval_calls": ("count", ("engine.evaluate",), lambda L: L.calls["engine.evaluate"]),
    "engine.eval_s": ("s", ("engine.evaluate",), lambda L: L.total["engine.evaluate"]),
    "engine.loop_self_s": ("s", ("engine.loop",), lambda L: L.self_time["engine.loop"]),
    "cli.config_s": ("s", ("cli.config",), lambda L: L.total["cli.config"]),
    "cli.write_s": ("s", ("cli.execute", "cli.write"),
                    lambda L: L.self_time["cli.execute"] + L.total["cli.write"]),
    "cli.sweep_busy_ratio": ("ratio", ("cli.sweep", "cli.sweep_child"),
                             lambda L: _ratio(L.total["cli.sweep_child"], L.jobs_wall)),
}


def layer_metrics(tracer: Tracer, passes: list[Layers]) -> tuple[dict, dict]:
    """Median over traced passes of each per-layer metric; and absent reasons."""
    values, absent = {}, {}
    for name, (unit, spans, fn) in PER_LAYER.items():
        reason = tracer.missing(*spans)
        if reason is not None:
            absent[name] = reason
            continue
        values[name] = (statistics.median(float(fn(layers)) for layers in passes), unit)
    return values, absent
