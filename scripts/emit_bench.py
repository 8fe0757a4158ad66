#!/usr/bin/env python
"""Measure the simulation core and emit ``BENCH_micro.json``.

Tracks the perf trajectory of the hot paths the engine and cache PRs
rebuilt:

* event-engine throughput -- the segment workload as session arcs on
  the calendar queue;
* hourly-meter throughput -- hour-spanning vs. single-bucket intervals;
* trace pipeline -- ``generate_trace`` on the python and (when
  importable) numpy backends, plus the sweep-worker share hand-off
  (slice-file publish and worker attach, the cost that replaces a
  worker-side regeneration);
* cache-path throughput -- windowed-LFU membership decisions and the
  index server's full request/fill path, both on the policy engine
  (PR 2), compared against the recorded PR-1 classic-path baseline;
* segment placement -- ``PlacementMap`` admissions and evictions in the
  churn-sweep shape, compared against the recorded heap-placement and
  level-FIFO (two-ledger) baselines;
* end-to-end replay -- one full system run on each engine (bucket and
  -- when numpy is importable -- columnar), with drain throughput
  reported as events/s per engine, and the bucket time compared
  against the recorded inline-metering baseline;
* sweep wall-clock -- the same config sweep serial vs. multi-worker
  (with the worker count and CPU count recorded, since a single-CPU
  host cannot show parallel speedup);
* peak RSS -- materialized monolithic replay vs. streamed sharded
  replay of the same workload, each probed in its own interpreter
  (``resource.getrusage`` reports a process-lifetime high-water mark,
  so probes cannot share a process), plus -- under ``--metro`` -- a
  million-user paper-catalog streamed metro replay whose bounded
  footprint is the point of the streaming pipeline.

Usage::

    python scripts/emit_bench.py [--quick] [--workers N] [--output PATH]
                                 [--metro] [--metro-users N]

Run it from the repository root (or with ``src`` on ``PYTHONPATH``).
``scripts/bench_trend.py`` appends the emitted report to
``BENCH_history.jsonl`` and gates CI on end-to-end regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import units  # noqa: E402
from repro.cache.base import StrategyContext  # noqa: E402
from repro.cache.factory import BuildInputs, LFUSpec, LRUSpec  # noqa: E402
from repro.cache.index_server import IndexServer  # noqa: E402
from repro.cache.segments import (  # noqa: E402
    PlacementMap,
    cache_footprint_bytes,
    peer_slots,
    segment_bytes,
    usable_capacity_bytes,
)
from repro.core.config import SimulationConfig  # noqa: E402
from repro.core.meter import HourlyMeter  # noqa: E402
from repro.core.parallel import run_many  # noqa: E402
from repro.core.runner import run_simulation  # noqa: E402
from repro.core.system import columnar_supported  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.trace.records import Catalog, Program  # noqa: E402
from repro.trace.synthetic import PowerInfoModel, generate_trace  # noqa: E402


#: Baseline measured at the seed commit (e80c5fd) on the PR-1 host
#: (1 CPU, Python 3.11): the same fast-profile run (`base_trace(FAST)`,
#: 1000-peer nominal neighborhoods, LFU) before the engine rebuild.
#: Kept in the report so the perf trajectory has its starting point.
SEED_REFERENCE = {
    "commit": "e80c5fd",
    "fast_profile_run_s": 7.49,
    "note": (
        "pre-rebuild wall clock (best of 3) for one fast-profile "
        "simulation run; the same run and seed produced bit-identical "
        "counters and meter buckets after the rebuild"
    ),
}

#: Cache-path baseline measured at the PR-1 commit (b2e1956): identical
#: workloads driven through the classic push-on-change LFU and the
#: pre-batching index server.  Measured *interleaved* with the PR-2
#: code (alternating processes, median of 4 best-of-3 runs) because
#: this container's absolute wall clock drifts ~1.5x between phases --
#: only same-phase A/B numbers are comparable.  The policy-engine
#: equivalence suite proves the refactored path makes the same
#: decisions; this records how much faster it makes them (PR 2:
#: index_requests ~1.34x, end_to_end ~1.11x, lfu_decisions at parity
#: with heap memory bounded O(members) instead of O(accesses)).
PR1_CACHE_REFERENCE = {
    "commit": "b2e1956",
    "lfu_decisions_s": 0.1296,
    "index_requests_s": 0.0930,
    "end_to_end_s": 0.484,
    "note": (
        "median-of-4 interleaved best-of-3 wall clocks: 40k LFU(2h) "
        "membership decisions over 400 programs (3/4 of accesses to a "
        "resident 40-program head, the simulator's steady-state shape), "
        "40k index-server segment requests (50 peers, 60 programs) "
        "including session starts and fills, and one 1500-user/6-day "
        "replay (the end_to_end section's workload)"
    ),
}


#: Placement baseline measured at the parent of the level-FIFO rewrite
#: (c8cd0bd), where ``PlacementMap`` kept a stale-entry heap: the same
#: ``placement_churn(20_000)`` workload, median of 5 best-of-3 wall
#: clocks alternated with the FIFO code on a 2-vCPU Xeon host (Python
#: 3.11.7).  The golden placement digests prove both make the same
#: choices; this records how much faster the FIFOs make them.
HEAP_PLACEMENT_REFERENCE = {
    "commit": "c8cd0bd",
    "admissions": 20_000,
    "churn_s": 0.836,
    "note": (
        "80 peers x 2 GB, 14-segment programs, evict the oldest then "
        "admit; measured alternating with the level-FIFO map, whose "
        "median on the same runs was 0.389 s"
    ),
}


#: Placement baseline measured at the parent of the single storage
#: ledger (bf4018a), where every box also kept a per-program byte
#: ledger that ``PlacementMap`` filled through ``Counter`` plus
#: ``reserve``/``release`` calls: the same ``placement_churn(20_000)``
#: workload, median of 7 best-of-3 wall clocks alternated with the
#: single-ledger map on a 2-vCPU Xeon host (Python 3.11.7).
FIFO_PLACEMENT_REFERENCE = {
    "commit": "bf4018a",
    "admissions": 20_000,
    "churn_s": 0.355,
    "note": (
        "80 peers x 2 GB, 14-segment programs, evict the oldest then "
        "admit; measured alternating with the single-ledger map, whose "
        "median on the same runs was 0.158 s"
    ),
}


#: End-to-end baseline measured at the parent of the delivery-log fold
#: (af0a169), where the bucket engine built a ``DeliveryOutcome``,
#: bumped index-server stats and made one to three
#: ``HourlyMeter.add_interval`` calls per delivery: the end_to_end
#: section's bucket replay, median of 5 best-of-3 wall clocks
#: alternated with the folded code on a 2-vCPU Xeon host (Python
#: 3.11.7).  Both produce bit-identical results (bench/golden.json).
INLINE_METER_REFERENCE = {
    "commit": "af0a169",
    "bucket_s": 0.528,
    "note": (
        "1500 users / 6 days / seed 5, neighborhood 60; measured "
        "alternating with the delivery-log fold, whose median on the "
        "same runs was 0.420 s"
    ),
}


#: Columnar peak RSS measured at the parent of the windowed schedule
#: (46aa313), where the columnar engine built and held the whole run's
#: event schedule: the memory section's columnar probe on the fast
#: profile, read through the ``VmHWM`` probe, three runs alternated
#: with the windowed code on a 2-vCPU Xeon host (Python 3.11.7).
WHOLE_SCHEDULE_RSS_REFERENCE = {
    "commit": "46aa313",
    "columnar_peak_rss_mb": 154.7,
    "note": (
        "fast profile, engine='columnar', fresh interpreter; the "
        "windowed schedule measured 89.3 MB on the same runs"
    ),
}


#: Child-interpreter scaffold for the RSS probes.  The body must define
#: ``run() -> dict``; the scaffold times it and reports the process
#: peak RSS (self + pool children, KB on Linux) as one JSON line.  The
#: probe's own peak is ``VmHWM``: on Linux ``ru_maxrss`` survives
#: ``execve``, so it would start at the spawning process's high-water
#: mark.  ``ru_maxrss`` is the fallback where ``/proc`` is absent.
_PROBE_TEMPLATE = """\
import json, resource, sys, time
sys.path.insert(0, {src_path!r})
{body}
started = time.perf_counter()
extra = run()
wall = time.perf_counter() - started
try:
    with open('/proc/self/status') as status:
        self_kb = next(int(line.split()[1]) for line in status
                       if line.startswith('VmHWM:'))
except (OSError, StopIteration):
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps(dict(extra, wall_s=round(wall, 3),
                      peak_rss_mb=round(max(self_kb, child_kb) / 1024.0, 1))))
"""


def rss_probe(body: str) -> dict:
    """Run one workload in a fresh interpreter; return its RSS report.

    Peak RSS is a lifetime high-water mark, so a probe that shared this
    process would inherit every earlier section's footprint; a fresh
    child measures only its own workload (its ``VmHWM``, see
    ``_PROBE_TEMPLATE``).  ``RUSAGE_CHILDREN``
    folds in pool workers (their RSS peaks after they exit, which is
    when the kernel rolls them into the parent's children counter).
    """
    import subprocess

    src = str(Path(__file__).resolve().parent.parent / "src")
    code = _PROBE_TEMPLATE.format(src_path=src, body=body)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _memory_bodies(quick: bool, users: int, days: float):
    """The probe bodies for the memory section.

    Full mode probes the fast experiment profile (the suite's standard
    operating point); quick mode reuses the small end-to-end model so
    CI stays fast.  Both compare one monolithic materialized bucket
    replay against the same workload streamed through sharded replay,
    and probe the monolithic replay on the columnar engine.
    """
    if quick:
        prologue = (
            "from repro.core.config import SimulationConfig\n"
            "from repro.trace.synthetic import PowerInfoModel\n"
            f"model = PowerInfoModel(n_users={users}, "
            f"n_programs={users // 5}, days={days}, seed=5)\n"
            "config = SimulationConfig(neighborhood_size=60, "
            "warmup_days=0.5)\n"
        )
        n_shards = 2
    else:
        prologue = (
            "from repro.core.config import SimulationConfig\n"
            "from repro.experiments.profiles import FAST\n"
            "model = FAST.model()\n"
            "config = SimulationConfig("
            "neighborhood_size=FAST.neighborhood_size(1_000), "
            "warmup_days=FAST.warmup_days)\n"
        )
        n_shards = 4
    materialized, columnar = (prologue + (
        "def run():\n"
        "    from repro.core.runner import run_simulation\n"
        "    from repro.trace.synthetic import generate_trace\n"
        "    trace = generate_trace(model)\n"
        f"    result = run_simulation(trace, config, engine={engine!r})\n"
        "    return {'sessions': result.counters.sessions}\n"
    ) for engine in ("bucket", "columnar"))
    streamed = prologue + (
        "def run():\n"
        "    from repro.core.shard import run_sharded\n"
        f"    result = run_sharded(model, config, n_shards={n_shards}, "
        "streaming=True, workers=1)\n"
        "    return {'sessions': result.counters.sessions}\n"
    )
    return materialized, streamed, columnar, n_shards


def _metro_body(users: int, programs: int, days: float,
                neighborhood_size: int, shards: int, workers: int,
                chunk_hours: int) -> str:
    """The metro probe: streamed sharded replay, never a full trace."""
    return (
        "from repro.core.config import SimulationConfig\n"
        "from repro.core.shard import run_sharded\n"
        "from repro.trace.synthetic import PowerInfoModel\n"
        f"model = PowerInfoModel(n_users={users}, n_programs={programs}, "
        f"days={days}, seed=7)\n"
        f"config = SimulationConfig(neighborhood_size={neighborhood_size}, "
        "warmup_days=0.5)\n"
        "def run():\n"
        f"    result = run_sharded(model, config, n_shards={shards}, "
        f"streaming=True, workers={workers}, chunk_hours={chunk_hours})\n"
        "    return {'sessions': result.counters.sessions,\n"
        "            'events': result.events_processed,\n"
        "            'peak_server_gbps': "
        "round(result.peak_server_gbps(), 3)}\n"
    )


def _cpu_model() -> str:
    """Host CPU model, so trend baselines compare like with like."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def engine_arcs(sessions: int, segments: int) -> int:
    sim = Simulator()

    def step(now, index):
        return index < segments

    for i in range(sessions):
        sim.start_arc(300.0 + float(i), step)
    sim.run()
    return sim.events_processed


def _default_lfu(history_hours: float = 2.0):
    """One default-build LFU strategy (the policy-engine path)."""
    spec = LFUSpec(history_hours=history_hours)
    return spec.build(BuildInputs(n_neighborhoods=1)).strategies[0]


def cache_lfu_decisions(n_accesses: int, n_programs: int = 400) -> None:
    """Drive a deterministic stream of membership decisions.

    Three quarters of accesses go to a 40-program hot head that stays
    resident (member touches -- the simulator's steady-state shape at
    its ~60-70% hit ratios); the rest scan the cold tail and exercise
    the plan/eviction path.
    """
    strategy = _default_lfu()
    strategy.bind(StrategyContext(
        neighborhood_id=0,
        capacity_bytes=100.0 * (n_programs // 8),
        footprint_of=lambda pid: 100.0,
    ))
    on_access = strategy.on_access
    t = 0.0
    for i in range(n_accesses):
        t += 37.0
        if i % 4:
            pid = (i * i) % 40
        else:
            pid = 40 + (i * 7 + i // 11) % (n_programs - 40)
        on_access(t, pid)


def cache_index_requests(n_requests: int, n_users: int = 50,
                         n_programs: int = 60) -> None:
    """The full request/fill path through one index server."""
    catalog = Catalog([
        Program(i, units.SEGMENT_SECONDS * (3 + i % 5))
        for i in range(n_programs)
    ])
    placement = PlacementMap([20] * n_users)
    strategy = _default_lfu()
    initial = strategy.bind(StrategyContext(
        neighborhood_id=0,
        capacity_bytes=n_users * 20 * segment_bytes(),
        footprint_of=lambda pid: cache_footprint_bytes(catalog[pid]),
    ))
    server = IndexServer(0, range(n_users), strategy, placement, catalog)
    server.apply_initial_membership(initial)
    t = 0.0
    for i in range(n_requests):
        t += 41.0
        uid = (i * 7 + 3) % n_users
        pid = (i * i + i // 5) % n_programs
        if i % 3 == 0:
            server.on_session_start(t, uid, pid)
        server.request_segment(t, uid, pid, i % (3 + pid % 5),
                               units.SEGMENT_SECONDS)


def placement_churn(n_admissions: int, n_peers: int = 80,
                    storage_bytes: float = 2e9, segments: int = 14) -> None:
    """Evict-then-admit segment placement in the churn-sweep shape.

    ``n_peers`` peers of ``storage_bytes`` each (80 x 2 GB: six slots
    per peer) hold as many ``segments``-segment programs as fit; every
    further admission first evicts the oldest resident program.  All
    the work is :meth:`PlacementMap.place_program` and
    :meth:`PlacementMap.remove_programs`, the ``cache.placement`` layer.
    """
    placement = PlacementMap([peer_slots(storage_bytes)] * n_peers)
    fits = int(usable_capacity_bytes(storage_bytes, n_peers)
               // (segments * segment_bytes()))
    resident = deque()
    length = segments * units.SEGMENT_SECONDS
    for program_id in range(n_admissions):
        if len(resident) == fits:
            placement.remove_programs((resident.popleft(),))
        placement.place_program(Program(program_id, length))
        resident.append(program_id)


def meter_spanning(n: int) -> None:
    meter = HourlyMeter()
    for i in range(n):
        meter.add_interval(i * 97.0, 300.0, rate_bps=8.06e6)


def meter_single_bucket(n: int) -> None:
    meter = HourlyMeter()
    for i in range(n):
        meter.add_interval((i % 11) * 300.0, 300.0, rate_bps=8.06e6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI-friendly)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the sweep measurement")
    parser.add_argument("--output", default="BENCH_micro.json",
                        help="where to write the JSON report")
    parser.add_argument("--metro", action="store_true",
                        help="run the million-user streamed metro replay "
                             "(minutes of wall time; RSS stays bounded)")
    parser.add_argument("--metro-users", type=int, default=1_000_000,
                        help="metro subscriber count (default 1,000,000)")
    parser.add_argument("--metro-programs", type=int, default=8_278,
                        help="metro catalog size (default: the paper's "
                             "8,278-program PowerInfo catalog)")
    parser.add_argument("--metro-days", type=float, default=2.0,
                        help="metro trace window in days (default 2.0)")
    parser.add_argument("--metro-shards", type=int, default=8,
                        help="neighborhood groups for the metro replay")
    parser.add_argument("--metro-ab", action="store_true",
                        help="also replay the metro workload materialized "
                             "and monolithic (the A/B the streamed numbers "
                             "are compared against; gigabytes of RSS)")
    args = parser.parse_args()

    sessions, segments = (10, 500) if args.quick else (20, 1_000)
    meter_n = 20_000 if args.quick else 50_000
    users, days = (300, 2.0) if args.quick else (1_500, 6.0)

    report: dict = {
        "generated_unix": int(time.time()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "quick": args.quick,
        "seed_reference": SEED_REFERENCE,
    }

    # ---- event engine --------------------------------------------------
    events = sessions * (segments + 1)
    arc_s = best_of(lambda: engine_arcs(sessions, segments), repeats=7)
    report["engine"] = {
        "events": events,
        "arc_bucket_s": round(arc_s, 4),
        "arc_events_per_s": round(events / arc_s),
    }

    # ---- meter ---------------------------------------------------------
    span_s = best_of(lambda: meter_spanning(meter_n))
    single_s = best_of(lambda: meter_single_bucket(meter_n))
    report["meter"] = {
        "intervals": meter_n,
        "hour_spanning_s": round(span_s, 4),
        "single_bucket_s": round(single_s, 4),
        "single_bucket_intervals_per_s": round(meter_n / single_s),
    }

    # ---- trace pipeline ------------------------------------------------
    # Generator backends on one mid-size model, plus the sweep-worker
    # share hand-off (publish once, attach per worker).  Attach wall
    # time is what replaces a worker-side regeneration.
    from repro.trace.share import attach_trace, publish_trace, unlink_slice
    from repro.trace.synthetic import numpy_available

    trace_model = PowerInfoModel(n_users=users, n_programs=users // 5,
                                 days=days, seed=5)
    python_gen_s = best_of(
        lambda: generate_trace(trace_model, backend="python"), repeats=2
    )
    bench_trace = generate_trace(trace_model, backend="python")
    report["trace"] = {
        "records": len(bench_trace),
        "generate_python_s": round(python_gen_s, 4),
        "generate_python_records_per_s": round(len(bench_trace) / python_gen_s),
    }
    if numpy_available():
        numpy_gen_s = best_of(
            lambda: generate_trace(trace_model, backend="numpy"), repeats=2
        )
        # The backends draw independent streams, so their record counts
        # differ by Poisson noise; throughput needs its own numerator.
        numpy_records = len(generate_trace(trace_model, backend="numpy"))
        report["trace"]["generate_numpy_s"] = round(numpy_gen_s, 4)
        report["trace"]["generate_numpy_records"] = numpy_records
        report["trace"]["generate_numpy_records_per_s"] = round(
            numpy_records / numpy_gen_s
        )
        report["trace"]["numpy_speedup"] = round(python_gen_s / numpy_gen_s, 2)
    handle = publish_trace(bench_trace)
    published = []
    try:
        # Unlinking happens outside the timed callable so a slow
        # filesystem delete never shows up as a publish regression in
        # the trend history.
        publish_s = best_of(
            lambda: published.append(publish_trace(bench_trace)), repeats=2
        )
        attach_s = best_of(lambda: attach_trace(handle), repeats=2)
    finally:
        for extra in published:
            unlink_slice(extra.path)
        unlink_slice(handle.path)
    report["trace"]["share_publish_s"] = round(publish_s, 4)
    report["trace"]["share_attach_s"] = round(attach_s, 4)
    # Named per backend: what a worker's fallback actually costs
    # depends on which generator it would resolve to.
    report["trace"]["attach_speedup_vs_python_regen"] = round(
        python_gen_s / attach_s, 2
    )
    if numpy_available():
        report["trace"]["attach_speedup_vs_numpy_regen"] = round(
            numpy_gen_s / attach_s, 2
        )

    # ---- cache path ----------------------------------------------------
    cache_n = 10_000 if args.quick else 40_000
    lfu_s = best_of(lambda: cache_lfu_decisions(cache_n))
    requests_s = best_of(lambda: cache_index_requests(cache_n))
    report["cache"] = {
        "accesses": cache_n,
        "lfu_decisions_s": round(lfu_s, 4),
        "index_requests_s": round(requests_s, 4),
        "lfu_decisions_per_s": round(cache_n / lfu_s),
        "index_requests_per_s": round(cache_n / requests_s),
        "pr1_reference": PR1_CACHE_REFERENCE,
    }
    if not args.quick:
        # The reference was measured at the full workload size only.
        # Same-phase caveat applies (see PR1_CACHE_REFERENCE note): on a
        # drifting host these ratios are only indicative; the recorded
        # interleaved A/B medians are the trustworthy comparison.
        report["cache"]["speedup_vs_pr1"] = {
            "lfu_decisions": round(
                PR1_CACHE_REFERENCE["lfu_decisions_s"] / lfu_s, 2
            ),
            "index_requests": round(
                PR1_CACHE_REFERENCE["index_requests_s"] / requests_s, 2
            ),
        }

    # ---- segment placement ---------------------------------------------
    placement_n = 5_000 if args.quick else 20_000
    placement_s = best_of(lambda: placement_churn(placement_n))
    report["placement"] = {
        "admissions": placement_n,
        "churn_s": round(placement_s, 4),
        "admissions_per_s": round(placement_n / placement_s),
        "heap_reference": HEAP_PLACEMENT_REFERENCE,
        "fifo_reference": FIFO_PLACEMENT_REFERENCE,
    }
    if not args.quick:
        # The references were measured at the full workload size only.
        report["placement"]["speedup_vs_heap"] = round(
            HEAP_PLACEMENT_REFERENCE["churn_s"] / placement_s, 2
        )
        report["placement"]["speedup_vs_fifo"] = round(
            FIFO_PLACEMENT_REFERENCE["churn_s"] / placement_s, 2
        )

    # ---- end-to-end replay --------------------------------------------
    model = PowerInfoModel(n_users=users, n_programs=users // 5, days=days,
                           seed=5)
    trace = generate_trace(model)
    config = SimulationConfig(neighborhood_size=60, warmup_days=0.5)
    bucket_e2e = best_of(lambda: run_simulation(trace, config, engine="bucket"),
                         repeats=2)
    # Drain throughput: both engines process the identical event
    # stream (the equivalence suite pins bit-identity), so events/s is
    # directly comparable across them.
    drain_events = run_simulation(trace, config, engine="bucket").events_processed
    report["end_to_end"] = {
        "users": users,
        "days": days,
        "events": drain_events,
        "bucket_s": round(bucket_e2e, 3),
        "bucket_events_per_s": round(drain_events / bucket_e2e),
    }
    if columnar_supported():
        columnar_e2e = best_of(
            lambda: run_simulation(trace, config, engine="columnar"), repeats=2
        )
        report["end_to_end"]["columnar_s"] = round(columnar_e2e, 3)
        report["end_to_end"]["columnar_events_per_s"] = round(
            drain_events / columnar_e2e
        )
        report["end_to_end"]["columnar_speedup_vs_bucket"] = round(
            bucket_e2e / columnar_e2e, 2
        )
    if not args.quick:
        # Same workload (1500 users / 6 days / seed 5) as the recorded
        # PR-1 interleaved baseline.
        report["end_to_end"]["pr1_bucket_s"] = PR1_CACHE_REFERENCE["end_to_end_s"]
        report["end_to_end"]["speedup_vs_pr1"] = round(
            PR1_CACHE_REFERENCE["end_to_end_s"] / bucket_e2e, 2
        )
        report["end_to_end"]["inline_meter_reference"] = INLINE_METER_REFERENCE
        report["end_to_end"]["speedup_vs_inline_meter"] = round(
            INLINE_METER_REFERENCE["bucket_s"] / bucket_e2e, 2
        )

    # ---- live headend drain -------------------------------------------
    # The online serving mode (PR 8): the same replay behind the
    # admission layer.  The no-op drain prices the wrapper itself
    # (bit-identical results; tests/live/test_live_equivalence.py), the
    # active drain prices a real throttle+fairness policy on an
    # abusive-user workload and records its verdict mix.
    from repro.live import AdmissionController, FairnessSpec, ThrottleSpec

    def live_noop():
        from repro.core.system import CableVoDSystem

        controller = AdmissionController(throttle=ThrottleSpec(),
                                         fairness=FairnessSpec())
        return CableVoDSystem(trace, config).run(admission=controller)

    abusive_model = PowerInfoModel(n_users=users, n_programs=users // 5,
                                   days=days, seed=5, abusive_fraction=0.1,
                                   abusive_rate_x=6.0)
    abusive_trace = generate_trace(abusive_model)

    def live_active():
        from repro.core.system import CableVoDSystem

        controller = AdmissionController(
            throttle=ThrottleSpec(user_budget=4,
                                  user_window_seconds=86400.0),
            fairness=FairnessSpec(lead_seconds=14400.0, fill_weight=2.0),
        )
        return CableVoDSystem(abusive_trace, config).run(admission=controller)

    noop_s = best_of(live_noop, repeats=2)
    active_s = best_of(live_active, repeats=2)
    active_report = live_active().live
    report["live"] = {
        "users": users,
        "days": days,
        "noop_drain_s": round(noop_s, 3),
        "noop_events_per_s": round(drain_events / noop_s),
        "noop_overhead_vs_bucket": round(noop_s / bucket_e2e, 3),
        "active_drain_s": round(active_s, 3),
        "active_requests_per_s": round(
            (active_report.admitted + active_report.denied
             + active_report.deferrals) / active_s),
        "admitted": active_report.admitted,
        "denied": active_report.denied,
        "deferrals": active_report.deferrals,
        "note": (
            "noop = all-default specs on the end_to_end trace "
            "(bit-identical to the bucket engine; the ratio prices the "
            "admission wrapper); active = throttle(4/24h) + "
            "vtc(lead 4h, fill_weight 2) on the same-size workload with "
            "10% abusive users at 6x request rate"
        ),
    }

    # ---- fast-profile run vs. the recorded seed baseline ---------------
    if not args.quick:
        from repro.experiments.profiles import FAST, base_trace

        fast_trace = base_trace(FAST)
        fast_config = SimulationConfig(
            neighborhood_size=FAST.neighborhood_size(1_000),
            warmup_days=FAST.warmup_days,
        )
        fast_s = best_of(
            lambda: run_simulation(fast_trace, fast_config, engine="bucket"),
            repeats=2,
        )
        report["fast_profile_run"] = {
            "bucket_s": round(fast_s, 2),
            "seed_s": SEED_REFERENCE["fast_profile_run_s"],
            "speedup_vs_seed": round(
                SEED_REFERENCE["fast_profile_run_s"] / fast_s, 2
            ),
        }
        if columnar_supported():
            fast_columnar_s = best_of(
                lambda: run_simulation(fast_trace, fast_config,
                                       engine="columnar"),
                repeats=2,
            )
            report["fast_profile_run"]["columnar_s"] = round(fast_columnar_s, 2)
            report["fast_profile_run"]["columnar_speedup_vs_bucket"] = round(
                fast_s / fast_columnar_s, 2
            )
            report["fast_profile_run"]["columnar_speedup_vs_seed"] = round(
                SEED_REFERENCE["fast_profile_run_s"] / fast_columnar_s, 2
            )

    # ---- sweep (serial vs. workers) -----------------------------------
    configs = [
        SimulationConfig(neighborhood_size=60, warmup_days=0.5, strategy=spec)
        for spec in (LFUSpec(), LRUSpec())
    ]
    serial_s = best_of(lambda: run_many(model, configs, workers=1), repeats=1)
    parallel_s = best_of(
        lambda: run_many(model, configs, workers=args.workers), repeats=1
    )
    report["sweep"] = {
        "configs": len(configs),
        "workers": args.workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "note": (
            "parallel speedup requires >= workers physical CPUs; "
            "with cpu_count=1 this measures multiprocessing overhead only"
        ),
    }

    # ---- peak RSS: materialized vs. streamed ---------------------------
    # Fresh interpreter per probe (see rss_probe); the streamed number
    # is the one the streaming pipeline exists to bound.
    materialized_body, streamed_body, columnar_body, mem_shards = (
        _memory_bodies(args.quick, users, days))
    materialized_probe = rss_probe(materialized_body)
    streamed_probe = rss_probe(streamed_body)
    report["memory"] = {
        "workload": "quick-e2e" if args.quick else "fast-profile",
        "shards": mem_shards,
        "sessions": streamed_probe["sessions"],
        "materialized_peak_rss_mb": materialized_probe["peak_rss_mb"],
        "materialized_wall_s": materialized_probe["wall_s"],
        "streamed_peak_rss_mb": streamed_probe["peak_rss_mb"],
        "streamed_wall_s": streamed_probe["wall_s"],
        "note": (
            "peak RSS (the probe's VmHWM, or ru_maxrss off Linux, and "
            "its pool children's ru_maxrss) of one replay in a fresh "
            "interpreter: monolithic on the materialized trace vs. "
            "sharded streaming replay of the identical workload "
            "(bit-identical results; the equivalence suite pins it)"
        ),
    }
    if columnar_supported():
        columnar_probe = rss_probe(columnar_body)
        report["memory"]["columnar_peak_rss_mb"] = (
            columnar_probe["peak_rss_mb"])
        report["memory"]["columnar_wall_s"] = columnar_probe["wall_s"]
        if not args.quick:
            report["memory"]["whole_schedule_reference"] = (
                WHOLE_SCHEDULE_RSS_REFERENCE)

    # ---- metro: million-user streamed replay ---------------------------
    if args.metro:
        metro_size = 1_000
        metro_chunk_hours = 6
        metro_probe = rss_probe(_metro_body(
            args.metro_users, args.metro_programs, args.metro_days,
            metro_size, args.metro_shards, args.workers,
            metro_chunk_hours))
        report["metro"] = {
            "users": args.metro_users,
            "programs": args.metro_programs,
            "days": args.metro_days,
            "neighborhood_size": metro_size,
            "shards": args.metro_shards,
            "workers": args.workers,
            "chunk_hours": metro_chunk_hours,
            "sessions": metro_probe["sessions"],
            "events": metro_probe["events"],
            "peak_server_gbps": metro_probe["peak_server_gbps"],
            "wall_s": metro_probe["wall_s"],
            "events_per_s": round(metro_probe["events"]
                                  / metro_probe["wall_s"]),
            "peak_rss_mb": metro_probe["peak_rss_mb"],
            "note": (
                "streamed sharded replay; the full trace never exists "
                "-- each shard worker holds one generation chunk of "
                "session columns at a time"
            ),
        }
        if args.metro_ab:
            ab_probe = rss_probe(
                "from repro.core.config import SimulationConfig\n"
                "from repro.trace.synthetic import PowerInfoModel\n"
                f"model = PowerInfoModel(n_users={args.metro_users}, "
                f"n_programs={args.metro_programs}, "
                f"days={args.metro_days}, seed=7)\n"
                f"config = SimulationConfig("
                f"neighborhood_size={metro_size}, warmup_days=0.5)\n"
                "def run():\n"
                "    from repro.core.runner import run_simulation\n"
                "    from repro.trace.synthetic import generate_trace\n"
                "    trace = generate_trace(model)\n"
                "    result = run_simulation(trace, config, "
                "engine='bucket')\n"
                "    return {'sessions': result.counters.sessions,\n"
                "            'events': result.events_processed}\n")
            # Session/event counts must agree exactly -- the streamed
            # sharded replay is the same workload, not an approximation.
            report["metro"]["materialized"] = {
                "sessions": ab_probe["sessions"],
                "events": ab_probe["events"],
                "wall_s": ab_probe["wall_s"],
                "peak_rss_mb": ab_probe["peak_rss_mb"],
                "rss_ratio_vs_streamed": round(
                    ab_probe["peak_rss_mb"]
                    / metro_probe["peak_rss_mb"], 2),
            }

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
