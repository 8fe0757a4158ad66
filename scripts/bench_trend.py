#!/usr/bin/env python
"""Append a BENCH_micro.json report to the trend log and gate regressions.

Usage::

    python scripts/bench_trend.py [--report BENCH_micro.json]
                                  [--history BENCH_history.jsonl]
                                  [--max-regression 0.25]

Reads the freshly emitted ``BENCH_micro.json``, appends one compact
line to ``BENCH_history.jsonl`` (so the perf trajectory accumulates
across CI runs via the artifact), renders an ASCII trend chart of the
comparable history (also into ``$GITHUB_STEP_SUMMARY`` when set, so the
trajectory shows up on the CI run page), and exits non-zero when an
end-to-end metric (bucket or columnar) regressed more than
``--max-regression`` (default 25%) against the previous history entry.  The first run of a metric
never fails -- there is nothing to compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Metrics recorded per run: (history key, report path).  Lower is
#: better for all of them (wall-clock seconds, except the ``_rss_mb``
#: entries, which are peak resident-set megabytes).
RECORDED_METRICS = (
    ("end_to_end_s", ("end_to_end", "bucket_s")),
    # Columnar drain: the batched replay core on the same end-to-end
    # workload, and the engine resolve_engine() gives callers where
    # numpy is importable.  Absent on pure-python hosts.
    ("end_to_end_columnar_s", ("end_to_end", "columnar_s")),
    ("cache_lfu_s", ("cache", "lfu_decisions_s")),
    ("cache_requests_s", ("cache", "index_requests_s")),
    # Segment placement: the PlacementMap churn probe, the
    # cache.placement layer on its own.
    ("placement_churn_s", ("placement", "churn_s")),
    # Trace pipeline (PR 5): generator backends plus the sweep-worker
    # share hand-off.  The numpy entry is absent on pure-python hosts;
    # missing metrics are simply skipped.
    ("trace_generate_python_s", ("trace", "generate_python_s")),
    ("trace_generate_numpy_s", ("trace", "generate_numpy_s")),
    ("trace_share_publish_s", ("trace", "share_publish_s")),
    ("trace_share_attach_s", ("trace", "share_attach_s")),
    # Peak RSS (PR 7): materialized monolithic vs. streamed sharded
    # replay, in MB rather than seconds -- lower is still better.  The
    # metro entries only appear on --metro runs; missing metrics are
    # skipped as usual.
    ("memory_materialized_rss_mb", ("memory", "materialized_peak_rss_mb")),
    ("memory_streamed_rss_mb", ("memory", "streamed_peak_rss_mb")),
    # Columnar peak RSS: the same monolithic replay on the windowed
    # columnar schedule.  Absent on pure-python hosts; recorded, not
    # gated.
    ("memory_columnar_rss_mb", ("memory", "columnar_peak_rss_mb")),
    ("metro_wall_s", ("metro", "wall_s")),
    ("metro_peak_rss_mb", ("metro", "peak_rss_mb")),
)

#: Only the end-to-end replays gate CI: columnar, the engine callers get
#: with numpy, and bucket, the live, chunked and numpy-free path.  The
#: cache micro metrics are millisecond-scale in --quick mode -- pure
#: noise fodder across heterogeneous shared runners -- so they are
#: recorded for the trend chart but never fail the build.
GATED_KEYS = ("end_to_end_s", "end_to_end_columnar_s")


def _dig(report: dict, path: tuple) -> float | None:
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def summarize(report: dict) -> dict:
    """One history line: provenance plus the gated metrics."""
    entry = {
        "generated_unix": report.get("generated_unix"),
        "python": report.get("python"),
        "cpu_count": report.get("cpu_count"),
        "cpu_model": report.get("cpu_model"),
        "quick": report.get("quick"),
    }
    for key, path in RECORDED_METRICS:
        value = _dig(report, path)
        if value is not None:
            entry[key] = value
    return entry


def comparable_entries(lines: list, entry: dict) -> list:
    """History entries measured on the same workload shape and hardware."""
    matches = []
    for line in lines:
        candidate = json.loads(line)
        if (candidate.get("quick") == entry.get("quick")
                and candidate.get("cpu_count") == entry.get("cpu_count")
                and candidate.get("cpu_model") == entry.get("cpu_model")):
            matches.append(candidate)
    return matches


def render_trend(entries: list, key: str = "end_to_end_s",
                 width: int = 40, last: int = 20) -> str:
    """An ASCII bar chart of one metric's trajectory, oldest first.

    Bars scale to the slowest run in view; regressions that were gated
    are marked so the trend stays honest about which entries the
    baseline selection skipped.
    """
    points = [(e.get(key), bool(e.get("regressed"))) for e in entries[-last:]]
    points = [(v, flagged) for v, flagged in points if isinstance(v, (int, float))]
    if not points:
        return ""
    top = max(v for v, _ in points)
    lines = [f"{key} trend ({len(points)} comparable runs, "
             f"latest last; full bar = {top:.4f}s)"]
    for index, (value, flagged) in enumerate(points, 1):
        bar = "#" * max(1, round(width * value / top)) if top > 0 else ""
        marker = "  <- gated regression" if flagged else ""
        lines.append(f"  {index:>3}  {value:8.4f}s  {bar}{marker}")
    return "\n".join(lines)


def _publish_summary(chart: str) -> None:
    """Print the chart; mirror it into the CI job summary when present."""
    if not chart:
        return
    print(chart)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("### Bench trend\n\n```text\n" + chart + "\n```\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default="BENCH_micro.json",
                        help="bench report to ingest")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="trend log to append to")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fail when an end-to-end replay slows by more "
                             "than this fraction vs. the previous entry "
                             "(default 0.25)")
    args = parser.parse_args()

    report_path = Path(args.report)
    if not report_path.exists():
        print(f"error: no bench report at {report_path}", file=sys.stderr)
        return 2
    report = json.loads(report_path.read_text())
    entry = summarize(report)

    # Only an entry measured on the same workload shape AND the same
    # hardware is a valid baseline: quick and full runs differ ~4x in
    # raw seconds, and shared-runner fleets span CPU generations whose
    # single-thread speed differs by more than the gate threshold.
    # Entries that themselves failed the gate are skipped too --
    # otherwise a regression becomes the next run's baseline and the
    # gate only ever fires once.
    history_path = Path(args.history)
    earlier: list = []
    if history_path.exists():
        lines = [line for line in history_path.read_text().splitlines() if line.strip()]
        earlier = comparable_entries(lines, entry)
    previous: dict | None = next(
        (candidate for candidate in reversed(earlier)
         if not candidate.get("regressed")),
        None,
    )

    failures = []
    if previous is not None:
        for key, _ in RECORDED_METRICS:
            now, then = entry.get(key), previous.get(key)
            if now is None or then is None or then <= 0:
                continue
            change = now / then - 1.0
            gated = key in GATED_KEYS
            if change > args.max_regression and gated:
                marker = "REGRESSION"
                failures.append(key)
            elif change > args.max_regression:
                marker = "slower, not gated"
            else:
                marker = "ok"
            print(f"bench-trend: {key}: {then:.4f}s -> {now:.4f}s "
                  f"({change:+.1%}) [{marker}]")
        if failures:
            entry["regressed"] = failures

    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")

    _publish_summary(render_trend(earlier + [entry]))

    if previous is None:
        print(f"bench-trend: no comparable entry in {history_path}; "
              f"recorded without gating")
        return 0
    if failures:
        print(
            f"error: {', '.join(failures)} regressed beyond "
            f"{args.max_regression:.0%} vs. the last healthy run",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
