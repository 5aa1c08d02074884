"""Command-line front end: run, sweep, finetune, pareto, report.

Each run is described by a JSON config file (see README for the schema);
seed flags override file values and the effective merged config is echoed
into the output directory, so any artifact can be reproduced from its
directory alone.  Output directories are named
``<method>_<seeds>_<config-hash>`` - deterministic, so reruns land in the
same place and produce byte-identical files.

Exit codes: 0 success, 2 invalid configuration or arguments or an unreadable
or unwritable file, 3 numeric abort (the failing step index is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import pickle
import sys
from pathlib import Path

from . import combiners, engine
from .engine import (
    ConfigError,
    EvalResult,
    NumericAbort,
    RunConfig,
    RunRecord,
    config_from_dict,
    non_dominated_set,
    pass_overhead,
    record_from_json,
    record_to_json,
    run_name,
    run_unlearning,
    write_trace_csv,
)

SWEEPABLE = ("c", "eta", "beta", "method")
# the method kinds that read c, as the config field table gives them
C_KINDS = next(kinds for name, *_, kinds in engine.METHOD_FIELDS if name == "c")


def _load_config_dict(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(path, "config nests too deeply to parse") from None


def _object(doc: dict, key: str) -> dict:
    """Section ``key`` of ``doc``, created empty if absent; must be an object."""
    value = doc.setdefault(key, {})
    if not isinstance(value, dict):
        raise ConfigError(key, "must be an object")
    return value


def _apply_seed_overrides(doc: dict, args) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")
    doc = json.loads(json.dumps(doc))  # deep copy
    seeds = _object(doc, "seeds")
    for name in engine.Seeds._fields:
        value = getattr(args, f"seed_{name}", None)
        if value is not None:
            seeds[name] = value
    return doc


class OutError(Exception):
    """``--out`` or an artifact under it cannot be written; ``main`` prints it and exits 2."""


def _make_dir(path: Path, out: str) -> Path:
    """Create the directory ``path``, which is ``--out`` or lies under it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise OutError(f"--out {out}: cannot create directory {path}: {exc.strerror}") from None
    return path


def _out_file(directory: Path, name: str, out: str) -> Path:
    """The artifact ``directory / name`` under ``--out``; a directory in its place is an OutError.

    Checked before anything is computed, so a run does not fail after its loop.
    """
    path = directory / name
    if path.is_dir():
        raise OutError(f"--out {out}: cannot write {path}: Is a directory")
    return path


@contextlib.contextmanager
def _writing(path: Path, out: str):
    """Turn an OSError raised while writing the artifact ``path`` under ``--out`` into an OutError."""
    try:
        yield
    except OSError as exc:  # a dangling symlink, or no permission
        raise OutError(f"--out {out}: cannot write {path}: {exc.strerror}") from None


def _write(path: Path, text: str, out: str) -> None:
    """Write the artifact ``path`` under ``--out`` whole (``engine.write_file``)."""
    with _writing(path, out):
        engine.write_file(path, text)


def _csv_text(rows) -> str:
    """``rows`` as CSV lines, a cell that holds a comma, a double quote or a ``\\n`` quoted."""
    import csv  # only sweep and pareto write CSV here
    import io

    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _fmt(x: float) -> str:
    return "nan" if not math.isfinite(x) else f"{x:.6f}"


def _summary(final: EvalResult) -> str:
    """The final metrics as ``name=value`` pairs, the run and report lines' shared segment."""
    return " ".join(f"{name}={_fmt(x)}" for name, x in zip(EvalResult._fields, final))


ARTIFACTS = ("config.json", "trace.csv", "record.json")


def _execute_run(cfgs: list, out_dir: str, start=None) -> list:
    """Run configs of one ``engine.lockstep_key`` in lockstep and write each one's artifacts.

    Returns one outcome per config: its record, or the exception that ended
    it (an ``OutError`` when an artifact cannot be written, which a config
    meets before the loop starts unless the loop's own artifacts fail).
    ``start`` is the runs' no-unlearn start when it was made elsewhere (see
    ``run_unlearning``).
    """
    outcomes, paths = {}, {}
    for i, cfg in enumerate(cfgs):
        try:
            run_dir = _make_dir(Path(out_dir) / run_name(cfg), out_dir)
            run_paths = run_dir, *(_out_file(run_dir, name, out_dir) for name in ARTIFACTS)
            text = json.dumps(engine.config_to_dict(cfg), sort_keys=True, indent=2)
            _write(run_paths[1], text + "\n", out_dir)
            paths[i] = run_paths
        except OutError as exc:
            outcomes[i] = exc
    results = run_unlearning([cfgs[i] for i in paths], start) if paths else []
    for (i, (run_dir, _, trace_path, record_path)), result in zip(paths.items(), results):
        outcomes[i] = result
        if not isinstance(result, RunRecord):
            continue
        try:
            with _writing(trace_path, out_dir):
                write_trace_csv(result, trace_path)
            _write(record_path, record_to_json(result) + "\n", out_dir)
        except OutError as exc:
            outcomes[i] = exc
            continue
        finally:
            # the formatted lines served both writers; a group would otherwise keep every run's
            vars(result).pop("trace_lines", None)
        # one write per line: sweep children share stdout, and print's separate
        # newline write would let another child's line in between when unbuffered
        sys.stdout.write(
            f"{run_dir.name}: {_summary(result.final)} "
            f"overhead={pass_overhead(result):.4f} guard_trips={result.guard_trips}\n"
        )
        sys.stdout.flush()
    return [outcomes[i] for i in range(len(cfgs))]


def cmd_run(args) -> int:
    cfg = config_from_dict(_apply_seed_overrides(_load_config_dict(args.config), args))
    (outcome,) = _execute_run([cfg], args.out)
    if isinstance(outcome, Exception):
        raise outcome
    return 0


def _float(param: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError("values", f"{param} value {value!r} is not a number") from None


def _child_method(method: dict, kind: str, **values) -> dict:
    """A method of ``kind`` with ``values`` and the fields of ``method`` that ``kind`` reads.

    A field no kind reads is a config error, as in a lone run, not dropped.
    """
    readers = {name: kinds for name, *_, kinds in engine.METHOD_FIELDS}
    for key in method:
        if key not in readers:
            raise ConfigError(f"method.{key}", "unknown field")
    kept = {key: v for key, v in method.items() if readers[key] is None or kind in readers[key]}
    return {**kept, "kind": kind, **values}


def _sweep_config(doc: dict, param: str, value: str) -> dict:
    out = json.loads(json.dumps(doc))
    if param == "c":
        kind = _object(out, "method").get("kind", combiners.GDIFF)
        kind = kind if kind in C_KINDS else combiners.GDIFF
        out["method"] = _child_method(out["method"], kind, c=_float(param, value))
    elif param == "eta":
        lr = _object(out, "lr")
        lr["mode"] = "fixed"
        lr["eta"] = _float(param, value)
    elif param == "beta":
        out["method"] = _child_method(_object(out, "method"), engine.NPO, beta=_float(param, value))
    else:  # method
        out["method"] = _child_method(_object(out, "method"), value)
    return out


def _describe(exc: BaseException) -> str:
    """One line naming an unexpected error and the line that raised it."""
    import traceback  # only a failed sweep child needs it

    frames = traceback.extract_tb(exc.__traceback__)
    where = f" (at {Path(frames[-1].filename).name}:{frames[-1].lineno})" if frames else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _child_result(value: str, outcome) -> tuple:
    """(value, exit code, final metrics or None, message or None) of one sweep value."""
    if isinstance(outcome, RunRecord):
        # as record.json holds them: a non-finite value is stored as null, read back as nan
        return value, 0, tuple(x if math.isfinite(x) else math.nan for x in outcome.final), None
    if isinstance(outcome, NumericAbort):
        return value, 3, None, str(outcome)
    if isinstance(outcome, OutError):
        return value, 2, None, str(outcome)
    return value, 1, None, _describe(outcome)  # a failing child must not take the sweep down


def _sweep_child(chunk: list, out_dir: str, start) -> list:
    """Run one chunk of a lockstep group, ``(value, config)`` pairs, in lockstep.

    Returns each value's ``(value, code, final, message)``; every failure
    comes back this way, one that ends the whole chunk for each of its values.
    Lanes call it by its module name, so a wrapper set there runs in children too.
    """
    try:
        outcomes = _execute_run([cfg for _, cfg in chunk], out_dir, start)
    except Exception as exc:  # e.g. the chunk's own finetune aborted
        outcomes = [exc] * len(chunk)
    return [_child_result(value, outcome) for (value, _), outcome in zip(chunk, outcomes)]


def _chunks(cfgs: list, jobs: int) -> list:
    """The sweep's tasks, as positions in ``cfgs``: each lockstep group split into at most ``jobs`` chunks.

    Groups come in the order of their first config and keep the configs'
    order; a group's chunks differ in size by one at most, larger first, so
    the sweep process (lane 0 of ``_run_lanes``) takes the larger one.
    """
    groups = {}
    for k, cfg in enumerate(cfgs):
        groups.setdefault(engine.lockstep_key(cfg), []).append(k)
    chunks = []
    for group in groups.values():
        count = min(jobs, len(group))
        edges = [-(-len(group) * c // count) for c in range(count + 1)]
        chunks += [group[a:b] for a, b in zip(edges, edges[1:])]
    return chunks


def _lane_child(tasks: list, pipe: int) -> None:
    """Run a forked lane's ``tasks``, send their pickled results down ``pipe`` and exit, whatever is raised."""
    code = 1
    try:
        with open(pipe, "wb") as fh:
            pickle.dump([_sweep_child(*task) for task in tasks], fh)
        code = 0
    finally:
        os._exit(code)


def _lane_results(pid: int, pipe: int, tasks: list) -> list:
    """What the forked lane ``pid`` sent down ``pipe`` for ``tasks``; reaps it.

    A lane that died or sent an unreadable pickle fails each of its values with exit 1.
    """
    data = bytearray()
    while part := os.read(pipe, 1 << 16):
        data += part
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        return pickle.loads(data)
    except Exception as exc:  # a truncated pickle raises one of several types
        ended = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        why = f"sweep child process {pid} ({ended}) sent no readable results: {type(exc).__name__}: {exc}"
        return [[(value, 1, None, why) for value, _ in pairs] for pairs, *_ in tasks]


def _run_lanes(tasks: list, lanes: int) -> list:
    """Each task's ``_sweep_child`` results, the tasks dealt in order to ``lanes`` lanes.

    Lane 0 is this process, which runs it once it has forked one child per
    other lane (or, without a working ``os.fork``, runs every lane itself),
    then reads and reaps the children.  Any child left is killed and reaped.
    """
    dealt = [list(range(lane, len(tasks), lanes)) for lane in range(lanes)]
    results = [None] * len(tasks)
    forked = {}  # lane -> (pid, read end)
    try:
        if lanes > 1 and hasattr(os, "fork"):
            sys.stdout.flush()  # else a child prints again what the buffers hold
            sys.stderr.flush()
            for lane in range(1, lanes):
                lane_tasks = [tasks[k] for k in dealt[lane]]
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: this process runs the lane
                    os.close(read)
                    os.close(write)
                    break
                if pid == 0:
                    _lane_child(lane_tasks, write)
                os.close(write)
                forked[lane] = pid, read
        for lane, indices in enumerate(dealt):
            if lane not in forked:
                for k in indices:
                    results[k] = _sweep_child(*tasks[k])
        for lane, (pid, read) in forked.items():
            lane_results = _lane_results(pid, read, [tasks[k] for k in dealt[lane]])
            for k, result in zip(dealt[lane], lane_results):
                results[k] = result
    finally:
        for pid, read in forked.values():
            os.close(read)
            with contextlib.suppress(ChildProcessError):  # already reaped
                if os.waitpid(pid, os.WNOHANG)[0] == 0:  # still running: the sweep was cut short
                    import signal

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return results


def _shared_starts(cfgs: list[RunConfig]) -> list:
    """The no-unlearn start of each child, made once per (seeds.data, seeds.init, problem).

    The start depends on nothing else, so a sweep over ``c``, ``eta``,
    ``beta`` or ``method`` makes one, which every child takes whole.  A child
    gets None when it has no start (quad problems) or when its finetune
    fails: it then takes the path of a lone run, which reports the failure
    itself, with the same message and exit code.
    """
    made = {}
    starts = []
    for cfg in cfgs:
        start = None
        if cfg.problem.kind == engine.GAUSSIAN:
            key = (cfg.seeds.data, cfg.seeds.init, cfg.problem)
            if key not in made:
                try:
                    made[key] = engine.no_unlearn(cfg)
                except Exception:  # met again by the child, which reports it as a lone run would
                    made[key] = None
            start = made[key]
        starts.append(start)
    return starts


def cmd_sweep(args) -> int:
    doc = _apply_seed_overrides(_load_config_dict(args.config), args)
    values = [v for v in (args.values or "").split(",") if v != ""]
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    child_docs = [_sweep_config(doc, args.param, v) for v in values]
    # one result per value, in order; a value whose config fails is not run
    results = [None] * len(values)
    runs = []  # (index, value, config) of each child to run
    first_value = {}
    for i, (value, child) in enumerate(zip(values, child_docs)):
        try:
            cfg = config_from_dict(child)
        except ConfigError as exc:
            results[i] = (value, 2, None, str(exc))
            continue
        # two children of one run directory would write it at once
        name = run_name(cfg)
        if name in first_value:
            print(f"error: --values {first_value[name]} and {value} give the same run", file=sys.stderr)
            return 2
        first_value[name] = value
        runs.append((i, value, cfg))
    out_root = _make_dir(Path(args.out), args.out)
    summary_path = _out_file(out_root, "sweep_summary.csv", args.out)
    starts = _shared_starts([cfg for _, _, cfg in runs])
    chunks = _chunks([cfg for _, _, cfg in runs], args.jobs)
    # one task per chunk: its (value, config) pairs and their start, which the group shares
    tasks = [([runs[k][1:] for k in chunk], str(out_root), starts[chunk[0]]) for chunk in chunks]
    chunk_results = _run_lanes(tasks, min(args.jobs, len(tasks)))
    for chunk, chunk_result in zip(chunks, chunk_results):
        for k, result in zip(chunk, chunk_result):
            results[runs[k][0]] = result

    worst = 0
    rows = [(args.param, *EvalResult._fields)]
    for value, code, final, err in results:
        if code != 0:
            print(f"error: value {value}: {err}", file=sys.stderr)
            worst = max(worst, code)
            continue
        rows.append((value, *map(repr, final)))
    _write(summary_path, _csv_text(rows), args.out)
    return worst


def cmd_finetune(args) -> int:
    doc = _apply_seed_overrides(_load_config_dict(args.config), args)
    cfg = config_from_dict(doc)
    if cfg.problem.kind != engine.GAUSSIAN:
        print("error: problem: finetune requires a classification problem", file=sys.stderr)
        return 2
    start = engine.no_unlearn(cfg)
    (ev,) = engine.evaluate(start.graph, start.params[None], start.split)
    if isinstance(ev, Exception):  # as a loop's final evaluation fails, after the last step
        raise NumericAbort(cfg.problem.finetune_steps, str(ev), start.params)
    print(
        f"no-unlearn: acc_retain={_fmt(ev.acc_retain)} acc_forget={_fmt(ev.acc_forget)} "
        f"loss_retain={_fmt(ev.loss_retain)} loss_forget={_fmt(ev.loss_forget)}"
    )
    return 0


def _load_records(patterns) -> list[tuple[str, RunRecord]]:
    """One record per match of ``patterns``, a pattern with none read as a path; never empty."""
    import glob  # only report and pareto read records

    paths: list[str] = []
    for pattern in patterns:
        hits = sorted(glob.glob(pattern))
        paths.extend(hits if hits else [pattern])
    records = []
    for path in paths:
        try:
            with open(path) as fh:
                records.append((path, record_from_json(fh.read())))
        except (OSError, ValueError, KeyError, RecursionError) as exc:
            raise ConfigError(path, f"unreadable record: {exc}") from None
    return records


def cmd_pareto(args) -> int:
    records = _load_records(args.records)
    points = []
    for path, record in records:
        try:
            points.append(record.pareto_point(tag=path))
        except ValueError as exc:  # a run whose final losses overflowed has no place on the front
            raise ConfigError(path, str(exc)) from None
    front = non_dominated_set(points)
    front_set = {id(p) for p in front}
    out_path = _out_file(_make_dir(Path(args.out), args.out), "pareto.csv", args.out)
    for p in points:
        status = "non-dominated" if id(p) in front_set else "dominated"
        print(f"{status}: {p.tag} loss_retain={p.retain_loss!r} loss_forget={p.forget_loss!r}")
    rows = [("tag", "loss_retain", "loss_forget")]
    rows += [(p.tag, repr(p.retain_loss), repr(p.forget_loss)) for p in front]
    _write(out_path, _csv_text(rows), args.out)
    return 0


def cmd_report(args) -> int:
    records = _load_records(args.records)
    for path, record in records:
        last = record.rows[-1]
        res, rel = engine.stationarity_residual(last.gnorm_retain, last.gnorm_forget, last.cos_rf)
        print(
            f"{path}: method={record.config['method']['kind']} steps={record.steps} "
            f"{_summary(record.final)} "
            f"overhead={pass_overhead(record):.4f} guard_trips={record.guard_trips} "
            f"passes={record.forward_passes}f/{record.backward_passes}b/"
            f"{record.probe_forward_passes}p "
            f"pareto_res={res:.6g} pareto_res_rel={rel:.6g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngdiff",
        description="Two-task unlearning runs: gradient combination rules with "
        "optional probe-based automatic learning rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed_flags(p):
        for name in engine.Seeds._fields:
            p.add_argument(f"--seed-{name}", type=int, default=None, help=f"override seeds.{name}")

    p_run = sub.add_parser("run", help="execute one unlearning run from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON run config")
    p_run.add_argument("--out", required=True, help="output directory")
    add_seed_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one config across a list of parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE, help="the field to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="processes that run the sweep's chunks, this one included"
    )
    add_seed_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ft = sub.add_parser(
        "finetune", help="finetune a config's no-unlearn model and print its evaluation"
    )
    p_ft.add_argument("--config", required=True)
    add_seed_flags(p_ft)
    p_ft.set_defaults(func=cmd_finetune)

    p_pareto = sub.add_parser("pareto", help="partition run records by Pareto dominance")
    p_pareto.add_argument("records", nargs="+", help="record.json paths or globs")
    p_pareto.add_argument("--out", default=".", help="directory for pareto.csv")
    p_pareto.set_defaults(func=cmd_pareto)

    p_report = sub.add_parser("report", help="summarize run records")
    p_report.add_argument("records", nargs="+", help="record.json paths or globs")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OutError, NumericAbort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericAbort) else 2


def entry() -> None:
    """The process entry point, of ``python -m ngdiff.cli`` and the ``ngdiff`` script.

    Freezing the objects the imports made takes them out of every later
    collection, interpreter shutdown included, and the children that
    ``sweep --jobs`` forks inherit them frozen.  ``main`` does not freeze: it also
    runs inside other processes, such as the tests.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
