"""One benchmark repeat, in a fresh interpreter.

Usage (the parent, ``bench/run.py``, spawns this)::

    python3 bench/child.py '<request json>'

The request names the workload, the seed override (or ``null``),
``smoke``, and ``spans_dir`` (set only for a traced repeat).  The
child loads the workload's scenarios, generates every materialized
trace (set-up), runs the replay through the public
``run_scenarios(...)`` call, checks every scenario point, and prints
one JSON object as the last line of its standard output.

Set-up ends at ``replay_started`` (``time.monotonic()``, a clock shared
by every process on the host), so the parent measures set-up from the
moment it spawned this interpreter.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _replay(request):
    import checks
    import suite

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    workload = suite.WORKLOADS[request["workload"]]
    tracer = None
    if request.get("spans_dir"):
        import layers

        tracer = layers.install(request["spans_dir"])

    from repro.core.runner import resolve_engine
    from repro.scenario.runner import run_scenarios
    from repro.trace.streaming import open_trace_stream
    from repro.trace.synthetic import resolve_trace_backend
    from repro.trace.workload import cached_workload_trace

    scenarios, at_default_seed = suite.load_scenarios(
        workload, request["seed"], request["smoke"])
    records = {}
    for scenario in scenarios:
        key = scenario.workload()
        if not scenario.streaming and key not in records:
            records[key] = len(cached_workload_trace(key))

    replay_started = time.monotonic()
    if tracer is not None:
        tracer.begin_replay()
    started = time.perf_counter()
    results = run_scenarios(scenarios, workers=workload.workers)
    replay_s = time.perf_counter() - started
    if tracer is not None:
        tracer.end_replay()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    totals = {"sessions": 0, "requests": 0, "segment_requests": 0,
              "hits": 0, "fills": 0, "fill_skips": 0, "evictions": 0,
              "events": 0, "deferrals": 0}
    for result in results:
        c = result.counters
        live = result.live
        totals["sessions"] += c.sessions
        totals["requests"] += c.sessions + (live.denied if live else 0)
        totals["segment_requests"] += c.segment_requests
        totals["hits"] += c.hits
        totals["fills"] += c.fills
        totals["fill_skips"] += c.fill_skips
        totals["evictions"] += c.evictions
        totals["events"] += result.events_processed
        totals["deferrals"] += live.deferrals if live else 0

    trace_report = None
    if tracer is not None:
        trace_report = tracer.report()
        trace_report["metrics"] = layers.layer_metrics(trace_report, totals)

    # Outside the timed replay: streamed workloads never materialize
    # their trace, so count its records by streaming it once more.
    backend = resolve_trace_backend()
    points = []
    for scenario, result in zip(scenarios, results):
        key = scenario.workload()
        if key not in records:
            records[key] = sum(len(chunk) for chunk in
                               open_trace_stream(key.model).chunks())
        errors = checks.invariant_errors(result, records[key])
        engine = "bucket" if scenario.streaming else resolve_engine(
            scenario.engine)
        if engine != scenario.engine:
            errors.append(f"resolved engine {engine!r} != declared "
                          f"{scenario.engine!r}")
        if backend != suite.TRACE_BACKEND:
            errors.append(f"resolved trace backend {backend!r} != declared "
                          f"{suite.TRACE_BACKEND!r}")
        points.append({"digest": checks.result_digest(result),
                       "engine": engine, "errors": errors})
    return {
        "ok": True,
        "replay_started": replay_started,
        "replay_s": replay_s,
        "events": totals["events"],
        "rss_mb": rss_kb / 1024.0,
        "backend": backend,
        "at_default_seed": at_default_seed,
        "points": points,
        "totals": totals,
        "trace": trace_report,
    }


def main(argv) -> int:
    sys.path[:0] = [SRC, BENCH_DIR]
    request = json.loads(argv[1])
    try:
        outcome = _replay(request)
    except Exception:
        # The parent counts every point of this repeat as failed.
        outcome = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(outcome))
    return 0 if outcome["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
