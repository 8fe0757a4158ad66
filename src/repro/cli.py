"""Command-line interface: paper exhibits and scenario files.

Usage::

    repro-vod list
    repro-vod list-strategies
    repro-vod list-families
    repro-vod fig08 [--profile fast|medium|paper]
    repro-vod all --profile medium
    repro-vod policies --workers 0
    repro-vod run examples/scenarios/quickstart.json
    repro-vod sweep examples/scenarios/gdsf_history_sweep.json --out rows.csv
    repro-vod describe fig08 --profile fast
    repro-vod describe fig15 --flat > fig15_grid.json
    repro-vod fig08 --trace-backend python
    repro-vod run examples/scenarios/quickstart.json --engine columnar
    python -m repro.cli fig15

Experiments print their paper-style table plus the paper's expected
shape for eyeball comparison.  ``run`` and ``sweep`` execute scenario /
sweep JSON files (see :mod:`repro.scenario`); sweep rows *stream* --
each row prints as its result lands, in stable expansion order, so long
grids (the 25-cell fig15 grid, parameter scans) show live progress.
``describe`` prints any scenario-backed built-in experiment in that
same JSON schema -- the fastest way to start a custom sweep is to
describe the nearest figure and edit the file.  ``list-strategies`` prints every cache policy
registered in the policy engine (name, label, parameters); sweeps
parallelize automatically (``REPRO_WORKERS`` or one worker per CPU)
unless ``--workers`` pins a count.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.runner import ENGINE_CHOICES
from repro.errors import ReproError
from repro.experiments import all_experiments, get_experiment, get_profile

#: Scenario-file subcommands (everything else is an experiment id).
_SUBCOMMANDS = ("run", "sweep", "describe", "lint")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vod",
        description=(
            "Regenerate the tables and figures of 'Deploying Video-on-Demand "
            "Services on Cable Networks' (ICDCS 2007), or run declarative "
            "scenario/sweep JSON files."
        ),
        epilog=(
            "subcommands: run <scenario.json>, sweep <sweep.json> "
            "[--out rows.csv], describe <experiment-id>"
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (e.g. fig08), 'all', 'list', 'list-strategies', "
            "'list-families', or a subcommand: run / sweep / describe"
        ),
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="scale profile: fast (default), medium, or paper",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII bar chart under each table",
    )
    _add_workers_flag(parser)
    _add_trace_backend_flag(parser)
    return parser


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run config sweeps across N worker processes (0 = one per "
            "CPU; 1 = serial; default: the REPRO_WORKERS environment "
            "variable, else one per CPU). Results are bit-identical to "
            "a serial run."
        ),
    )


def _add_trace_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-backend",
        default=None,
        choices=("auto", "python", "numpy"),
        help=(
            "synthetic-trace generator backend (default: the "
            "REPRO_TRACE_BACKEND environment variable, else auto: numpy "
            "when importable, pure python otherwise). Backends agree on "
            "every modeled distribution but draw different random "
            "streams, so switching changes individual records."
        ),
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default=None,
        choices=ENGINE_CHOICES,
        help=(
            "event-engine override for the loaded file: columnar "
            "(vectorized, needs numpy), bucket (scalar reference), auto "
            "(columnar when available, else bucket), or python (alias "
            "for bucket). Both engines produce bit-identical results, so "
            "this only affects speed."
        ),
    )


def _apply_workers(workers: Optional[int]) -> None:
    if workers is not None:
        from repro.core.parallel import set_default_workers

        set_default_workers(workers)


def _apply_trace_backend(backend: Optional[str]) -> None:
    if backend is not None:
        from repro.trace.synthetic import set_trace_backend

        set_trace_backend(backend)


def _print_strategies() -> None:
    """Render the policy registry as an aligned table."""
    from repro.cache.policies import iter_policies

    rows = []
    for info in iter_policies():
        params = ", ".join(
            f"{name}={default!r}" for name, default in info.parameters()
        ) or "-"
        rows.append((info.name, info.label, params, info.summary))
    name_width = max(len(row[0]) for row in rows)
    label_width = max(len(row[1]) for row in rows)
    param_width = max(len(row[2]) for row in rows)
    for name, label, params, summary in rows:
        print(f"{name:<{name_width}}  {label:<{label_width}}  "
              f"{params:<{param_width}}  {summary}")
    _print_live_admissions()


def _print_live_admissions() -> None:
    """Append the live admission-side policies to the registry listing."""
    from repro.cache.policies import iter_live_admissions

    rows = []
    for info in iter_live_admissions():
        params = ", ".join(
            f"{name}={default!r}" for name, default in info.parameters()
        ) or "-"
        rows.append((info.name, params, info.summary))
    if not rows:
        return
    print()
    print("live admission policies (repro-vod run --live "
          "[--throttle SPEC] [--fairness SPEC]):")
    name_width = max(len(row[0]) for row in rows)
    param_width = max(len(row[1]) for row in rows)
    for name, params, summary in rows:
        print(f"{name:<{name_width}}  {params:<{param_width}}  {summary}")


def _print_families() -> None:
    """Render the workload-family registry as an aligned table."""
    from repro.trace.families import iter_families

    rows = []
    for info in iter_families():
        names = [name for name, _ in info.parameters()]
        # powerinfo carries ~23 calibration knobs; keep the table
        # readable and point at the spec class for the full surface.
        if len(names) > 8:
            names = names[:8] + [f"... +{len(names) - 8} more"]
        params = ", ".join(names) or "-"
        rows.append((info.name, info.capabilities(), params, info.summary))
    name_width = max(len(row[0]) for row in rows)
    caps_width = max(len(row[1]) for row in rows)
    param_width = max(len(row[2]) for row in rows)
    for name, caps, params, summary in rows:
        print(f"{name:<{name_width}}  {caps:<{caps_width}}  "
              f"{params:<{param_width}}  {summary}")


# ---------------------------------------------------------------------------
# Scenario-file subcommands
# ---------------------------------------------------------------------------


def _row_table(title: str, columns: Sequence[str],
               rows: List[Dict[str, Any]]) -> str:
    """Render rows through the standard experiment table formatter."""
    from repro.experiments.base import ExperimentResult

    ordered = list(columns)
    for row in rows:
        for key in row:
            if key not in ordered:
                ordered.append(key)
    result = ExperimentResult(
        experiment_id=title or "scenario",
        title="",
        profile_name="file",
        columns=ordered,
        rows=rows,
    )
    return result.format_table()


def _write_csv(path: str, rows: List[Dict[str, Any]]) -> None:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as error:
        raise ReproError(f"cannot write CSV {path!r}: {error}") from None


def _stream_sweep_rows(sweep: Any) -> List[Dict[str, Any]]:
    """Run a sweep, printing each row as its result lands.

    Results stream back in expansion order (the runner uses ordered
    ``imap``), so long grids show live, stable progress instead of
    minutes of silence followed by one table.  Column widths come from
    the header names (values wider than their column overflow rather
    than buffering the whole table); keys a later point introduces are
    appended as ``key=value`` suffixes.  Returns all rows for CSV
    export.
    """
    from repro.experiments.base import format_cell
    from repro.scenario import iter_sweep_rows

    title = f"{sweep.sweep_id}: {sweep.title}  [{len(sweep)} points]"
    print(title, flush=True)
    rows: List[Dict[str, Any]] = []
    columns: List[str] = []
    widths: Dict[str, int] = {}
    for row in iter_sweep_rows(sweep):
        if not rows:
            columns = list(sweep.columns)
            for key in row:
                if key not in columns:
                    columns.append(key)
            widths = {name: max(len(name), 12) for name in columns}
            print("  ".join(name.ljust(widths[name]) for name in columns))
            print("  ".join("-" * widths[name] for name in columns),
                  flush=True)
        line = "  ".join(
            format_cell(row.get(name, "")).ljust(widths[name]) for name in columns
        )
        extras = [f"{key}={format_cell(value)}" for key, value in row.items()
                  if key not in columns]
        if extras:
            line = f"{line}  {' '.join(extras)}"
        print(line.rstrip(), flush=True)
        rows.append(row)
    return rows


def _cmd_run_or_sweep(subcommand: str, argv: List[str]) -> int:
    """``run``/``sweep``: execute a scenario or sweep JSON file."""
    parser = argparse.ArgumentParser(
        prog=f"repro-vod {subcommand}",
        description=(
            "Execute a scenario or sweep JSON file and print the standard "
            "result table (sweep rows stream as they finish; see repro-vod "
            "describe for the schema)."
        ),
    )
    parser.add_argument("file", help="path to a scenario/sweep JSON file")
    parser.add_argument("--out", default=None, metavar="CSV",
                        help="also write the result rows as CSV")
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help=(
            "cut each replay into N per-neighborhood-group shard tasks "
            "(bit-identical to the monolithic run; parallelizes across "
            "--workers). Overrides the file's 'shards' field."
        ),
    )
    parser.add_argument(
        "--streaming", action="store_true",
        help=(
            "generate each trace lazily and replay it chunk by chunk "
            "(bounded memory; bit-identical to the materialized run). "
            "Overrides the file's 'streaming' field."
        ),
    )
    parser.add_argument(
        "--live", action="store_true",
        help=(
            "drain each workload through the live headend mode (online "
            "request stream behind admission control; bit-identical to "
            "the offline replay when no admission policy is set). "
            "Overrides the file's 'live' field."
        ),
    )
    parser.add_argument(
        "--throttle", default=None, metavar="SPEC",
        help=(
            "live sliding-window overload throttle, e.g. "
            "'throttle:4,86400' or "
            "'throttle:user_budget=4,program_budget=60' (implies --live). "
            "Overrides the file's 'throttle' field."
        ),
    )
    parser.add_argument(
        "--fairness", default=None, metavar="SPEC",
        help=(
            "live virtual-counter fairness scheduler, e.g. "
            "'vtc:1800' or 'vtc:lead_seconds=1800,fill_weight=2' "
            "(implies --live). Overrides the file's 'fairness' field."
        ),
    )
    _add_workers_flag(parser)
    _add_trace_backend_flag(parser)
    _add_engine_flag(parser)
    args = parser.parse_args(argv)

    from repro.scenario import Scenario, load, run_sweep

    _apply_workers(args.workers)
    _apply_trace_backend(args.trace_backend)
    loaded = load(args.file)

    overrides: Dict[str, Any] = {}
    if args.engine is not None:
        # Scenarios carry an explicit engine field, so a process-level
        # default would never reach them; rewrite the loaded object with
        # the flag's choice instead (aliases resolved to a concrete
        # engine first, since the scenario schema only accepts those).
        from repro.core.runner import resolve_engine

        overrides["engine"] = resolve_engine(args.engine)
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.streaming:
        overrides["streaming"] = True
    if args.live or args.throttle is not None or args.fairness is not None:
        overrides["live"] = True
    if args.throttle is not None:
        # Strings are fine: Scenario coerces name[:args] specs on
        # construction, so the flag reuses the schema's own grammar.
        overrides["throttle"] = args.throttle
    if args.fairness is not None:
        overrides["fairness"] = args.fairness
    if overrides:
        from dataclasses import replace

        if isinstance(loaded, Scenario):
            loaded = replace(loaded, **overrides)
        else:
            loaded = replace(loaded, base=replace(loaded.base, **overrides))
    started = time.perf_counter()
    if isinstance(loaded, Scenario):
        rows = run_sweep(loaded)
        points = 1
        print(_row_table(loaded.label or "scenario", (), rows))
    else:
        points = len(loaded)
        rows = _stream_sweep_rows(loaded)
    elapsed = time.perf_counter() - started
    print(f"({points} run{'s' if points != 1 else ''}, {elapsed:.1f}s)")
    if args.out:
        _write_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_describe(argv: List[str]) -> int:
    """``describe``: print a built-in experiment as scenario/sweep JSON."""
    parser = argparse.ArgumentParser(
        prog="repro-vod describe",
        description=(
            "Print a scenario-backed experiment's sweep as JSON -- a "
            "ready-made starting point for custom scenario files."
        ),
    )
    parser.add_argument("experiment", help="experiment id (e.g. fig08)")
    parser.add_argument("--profile", default=None,
                        help="scale profile the JSON is snapshotted at")
    parser.add_argument(
        "--flat",
        action="store_true",
        help=(
            "inline the profile-scaled grid: emit one fully specified "
            "point per run (single 'point' axis, no cartesian product), "
            "row-identical to the nested form but portable to consumers "
            "that know nothing about experiment profiles"
        ),
    )
    args = parser.parse_args(argv)

    from repro.experiments.registry import describable_experiments

    module = get_experiment(args.experiment)
    if not hasattr(module, "sweep"):
        raise ReproError(
            f"experiment {args.experiment!r} is not scenario-backed; "
            f"describable ids: {describable_experiments()}"
        )
    profile = get_profile(args.profile)
    sweep = module.sweep(profile)
    if args.flat:
        sweep = sweep.flattened()
    print(sweep.to_json())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            if argv[0] == "describe":
                return _cmd_describe(argv[1:])
            if argv[0] == "lint":
                from repro.devtools.lint import main as lint_main

                return lint_main(argv[1:])
            return _cmd_run_or_sweep(argv[0], argv[1:])
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    args = _build_parser().parse_args(argv)

    if args.experiment == "list":
        for experiment_id, module in all_experiments().items():
            print(f"{experiment_id:10s} {module.TITLE}")
        return 0

    if args.experiment == "list-strategies":
        _print_strategies()
        return 0

    if args.experiment == "list-families":
        _print_families()
        return 0

    try:
        _apply_workers(args.workers)
        _apply_trace_backend(args.trace_backend)
        profile = get_profile(args.profile)
        if args.experiment == "all":
            targets = list(all_experiments().values())
        else:
            targets = [get_experiment(args.experiment)]
        for module in targets:
            started = time.perf_counter()
            result = module.run(profile)
            print(result.format_table())
            if args.chart:
                from repro.report.charts import chart_for_result

                chart = chart_for_result(result)
                if chart:
                    print(chart)
            print(f"({time.perf_counter() - started:.1f}s)")
            print()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
