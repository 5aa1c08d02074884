"""Command-line front end: run, sweep, finetune, pareto, report.

Each run is described by a JSON config file (see README for the schema);
seed flags override file values and the effective merged config is echoed
into the output directory, so any artifact can be reproduced from its
directory alone.  Output directories are named
``<method>_<seeds>_<config-hash>`` - deterministic, so reruns land in the
same place and produce byte-identical files.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numeric
abort (the failing step index is printed).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import glob
import json
import math
import sys
import traceback
from pathlib import Path

from . import engine
from .engine import (
    ConfigError,
    NumericAbort,
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


def _load_config_dict(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"config is not valid JSON: {exc}") from None


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
    for name in ("data", "init", "method"):
        value = getattr(args, f"seed_{name}", None)
        if value is not None:
            seeds[name] = value
    return doc


def _fmt(x: float) -> str:
    return "nan" if not math.isfinite(x) else f"{x:.6f}"


def _execute_run(doc: dict, out_dir: str) -> RunRecord:
    """Run one config document and write its artifacts; returns the record."""
    cfg = config_from_dict(doc)
    run_dir = Path(out_dir) / run_name(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump(engine.config_to_dict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")
    record = run_unlearning(cfg)
    write_trace_csv(record, run_dir / "trace.csv")
    with open(run_dir / "record.json", "w") as fh:
        fh.write(record_to_json(record) + "\n")
    f = record.final
    print(
        f"{run_dir.name}: loss_retain={_fmt(f.loss_retain)} loss_forget={_fmt(f.loss_forget)} "
        f"acc_retain={_fmt(f.acc_retain)} acc_forget={_fmt(f.acc_forget)} "
        f"overhead={pass_overhead(record):.4f} guard_trips={record.guard_trips}"
    )
    return record


def cmd_run(args) -> int:
    doc = _apply_seed_overrides(_load_config_dict(args.config), args)
    try:
        _execute_run(doc, args.out)
        return 0
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _float(param: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError("values", f"{param} value {value!r} is not a number") from None


def _sweep_config(doc: dict, param: str, value: str) -> dict:
    out = json.loads(json.dumps(doc))
    if param == "c":
        method = _object(out, "method")
        kind = method.get("kind", "gdiff")
        if kind not in ("gdiff", "scheduled_gdiff"):
            kind = "gdiff"
        out["method"] = {**method, "kind": kind, "c": _float(param, value)}
        if kind == "gdiff":
            out["method"].pop("amplitude", None)
            out["method"].pop("decay", None)
    elif param == "eta":
        lr = _object(out, "lr")
        lr["mode"] = "fixed"
        lr["eta"] = _float(param, value)
    elif param == "beta":
        out["method"] = {"kind": "npo", "beta": _float(param, value)}
    elif param == "method":
        method = {"kind": value}
        if value in ("gdiff", "scheduled_gdiff") and "c" in _object(out, "method"):
            method["c"] = out["method"]["c"]
        out["method"] = method
    else:
        raise ConfigError("param", f"not sweepable: {param!r} (choose from {SWEEPABLE})")
    return out


def _describe(exc: BaseException) -> str:
    """One line naming an unexpected error and the line that raised it."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" (at {Path(frames[-1].filename).name}:{frames[-1].lineno})" if frames else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _sweep_child(doc: dict, out_dir: str, value: str):
    """Run one sweep value; every failure comes back as (value, code, None, message)."""
    try:
        f = _execute_run(doc, out_dir).final
        # as record.json holds them: a non-finite value is stored as null, read back as nan
        final = tuple(
            x if math.isfinite(x) else math.nan
            for x in (f.loss_retain, f.loss_forget, f.acc_retain, f.acc_forget)
        )
        return value, 0, final, None
    except ConfigError as exc:
        return value, 2, None, str(exc)
    except NumericAbort as exc:
        return value, 3, None, str(exc)
    except Exception as exc:  # a failing child must not take the sweep down
        return value, 1, None, _describe(exc)


def cmd_sweep(args) -> int:
    doc = _apply_seed_overrides(_load_config_dict(args.config), args)
    values = [v for v in (args.values or "").split(",") if v != ""]
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return 2
    if args.param not in SWEEPABLE:
        print(f"error: --param must be one of {SWEEPABLE}", file=sys.stderr)
        return 2
    child_docs = [_sweep_config(doc, args.param, v) for v in values]
    first_value = {}
    for value, child in zip(values, child_docs):
        # equal documents would have two children write one run directory at once
        key = json.dumps(child, sort_keys=True)
        if key in first_value:
            print(f"error: --values {first_value[key]} and {value} give the same run", file=sys.stderr)
            return 2
        first_value[key] = value
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    results = []
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_sweep_child, d, str(out_root), v)
                for d, v in zip(child_docs, values)
            ]
            for future, value in zip(futures, values):
                try:
                    results.append(future.result())
                except Exception as exc:  # the worker process itself died
                    results.append((value, 1, None, _describe(exc)))
    else:
        results = [_sweep_child(d, str(out_root), v) for d, v in zip(child_docs, values)]

    worst = 0
    lines = [f"{args.param},loss_retain,loss_forget,acc_retain,acc_forget"]
    for value, code, final, err in results:
        if code != 0:
            print(f"error: value {value}: {err}", file=sys.stderr)
            worst = max(worst, code)
            continue
        lr_, lf, ar, af = final
        lines.append(f"{value},{lr_!r},{lf!r},{ar!r},{af!r}")
    with open(out_root / "sweep_summary.csv", "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return worst


def cmd_finetune(args) -> int:
    doc = _apply_seed_overrides(_load_config_dict(args.config), args)
    cfg = config_from_dict(doc)
    if not isinstance(cfg.problem, engine.GaussianProblem):
        print("error: problem: finetune requires a classification problem", file=sys.stderr)
        return 2
    prob = cfg.problem
    data = engine.gen_gaussian_clusters(
        cfg.seeds.data, prob.classes, prob.per_class, prob.dim, prob.separation
    )
    split = engine.split_forget_retain(data, prob.forget_class)
    graph, params0 = engine.mlp_factory(
        cfg.seeds.init, [prob.dim, *prob.hidden, prob.classes]
    )
    try:
        params = engine.finetune(graph, params0, data, prob.finetune_steps, prob.finetune_eta)
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    ev = engine.evaluate(graph, params, split)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = {
        "layout": [
            {"name": s.name, "shape": list(s.shape), "offset": s.offset}
            for s in params.layout.segments
        ],
        "data": [float(v) for v in params.data],
    }
    with open(out_dir / "no_unlearn_params.json", "w") as fh:
        json.dump(snapshot, fh, sort_keys=True)
        fh.write("\n")
    print(
        f"no-unlearn: acc_retain={_fmt(ev.acc_retain)} acc_forget={_fmt(ev.acc_forget)} "
        f"loss_retain={_fmt(ev.loss_retain)} loss_forget={_fmt(ev.loss_forget)}"
    )
    return 0


def _load_records(patterns) -> list[tuple[str, RunRecord]]:
    paths: list[str] = []
    for pattern in patterns:
        hits = sorted(glob.glob(pattern))
        paths.extend(hits if hits else [pattern])
    records = []
    for path in paths:
        try:
            with open(path) as fh:
                records.append((path, record_from_json(fh.read())))
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(path, f"unreadable record: {exc}") from None
    return records


def cmd_pareto(args) -> int:
    records = _load_records(args.records)
    if not records:
        print("error: no records given", file=sys.stderr)
        return 2
    points = [record.pareto_point(tag=path) for path, record in records]
    front = non_dominated_set(points)
    front_set = {id(p) for p in front}
    for p in points:
        status = "non-dominated" if id(p) in front_set else "dominated"
        print(f"{status}: {p.tag} loss_retain={p.retain_loss!r} loss_forget={p.forget_loss!r}")
    out_path = Path(args.out) / "pareto.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["tag,loss_retain,loss_forget"]
    for p in front:
        lines.append(f"{p.tag},{p.retain_loss!r},{p.forget_loss!r}")
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_report(args) -> int:
    records = _load_records(args.records)
    if not records:
        print("error: no records given", file=sys.stderr)
        return 2
    for path, record in records:
        method = record.config.get("method", {})
        f = record.final
        print(
            f"{path}: method={method.get('kind')} steps={record.steps} "
            f"loss_retain={_fmt(f.loss_retain)} loss_forget={_fmt(f.loss_forget)} "
            f"acc_retain={_fmt(f.acc_retain)} acc_forget={_fmt(f.acc_forget)} "
            f"overhead={pass_overhead(record):.4f} guard_trips={record.guard_trips} "
            f"passes={record.forward_passes}f/{record.backward_passes}b/"
            f"{record.probe_forward_passes}p"
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
        p.add_argument("--seed-data", type=int, default=None, help="override seeds.data")
        p.add_argument("--seed-init", type=int, default=None, help="override seeds.init")
        p.add_argument("--seed-method", type=int, default=None, help="override seeds.method")

    p_run = sub.add_parser("run", help="execute one unlearning run from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON run config")
    p_run.add_argument("--out", required=True, help="output directory")
    add_seed_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one config across a list of parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--param", required=True, help=f"one of {SWEEPABLE}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=1, help="concurrent child runs")
    add_seed_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ft = sub.add_parser("finetune", help="produce the no-unlearn snapshot for a config")
    p_ft.add_argument("--config", required=True)
    p_ft.add_argument("--out", required=True)
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


if __name__ == "__main__":
    sys.exit(main())
