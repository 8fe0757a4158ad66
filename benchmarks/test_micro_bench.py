"""Micro-benchmarks of the performance-critical substrates.

Unlike the figure benchmarks these measure real throughput numbers:
the event loop, the LFU admission path, hourly metering, and workload
generation.  Regressions here translate directly into longer experiment
runs.
"""

from __future__ import annotations

from collections import deque

from repro import units
from repro.cache.base import StrategyContext
from repro.cache.lfu import LFUStrategy
from repro.cache.segments import PlacementMap, peer_slots
from repro.core.config import SimulationConfig
from repro.core.meter import HourlyMeter
from repro.core.runner import run_simulation
from repro.sim.engine import Simulator
from repro.trace.records import Program
from repro.trace.synthetic import PowerInfoModel, generate_trace


def test_event_loop_throughput(benchmark):
    """Schedule and drain 20k chained events."""

    def run():
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.at(sim.now + 1.0, chain, remaining - 1)

        for _ in range(20):
            sim.at(0.0, chain, 1_000)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 20 * 1_001


def test_event_engine_arc_throughput(benchmark):
    """Session arcs: 20 sessions x 1,000 segments on the 300 s grid.

    One registration per session; every subsequent segment is a tuple
    append into a calendar bucket, with no heap push or pop.
    """

    def run():
        sim = Simulator()

        def step(now, index):
            return index < 1_000

        for i in range(20):
            sim.start_arc(300.0 + float(i), step)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 20 * 1_001


def test_lfu_access_throughput(benchmark):
    """Drive 10k accesses over 200 programs through windowed LFU."""

    def run():
        strategy = LFUStrategy(history_hours=1.0)
        strategy.bind(
            StrategyContext(
                neighborhood_id=0,
                capacity_bytes=5_000.0,
                footprint_of=lambda pid: 100.0,
            )
        )
        for i in range(10_000):
            strategy.on_access(float(i), (i * 7919) % 200)
        return len(strategy.members)

    members = benchmark(run)
    assert members == 50


def test_policy_engine_lfu_access_throughput(benchmark):
    """The same LFU workload on the policy engine's deferred heap.

    PR 2's acceptance bar: at parity with the classic push-on-change
    ``test_lfu_access_throughput`` above -- the deferred dirty-set heap
    buys back the engine's composition dispatch and bounds heap memory
    at O(members); the wall-clock win lives in the request path
    (``emit_bench.py``'s cache section).
    """
    from repro.cache.policies import AlwaysAdmit, LFUEviction, PolicyStrategy

    def run():
        strategy = PolicyStrategy(AlwaysAdmit(), LFUEviction(history_hours=1.0))
        strategy.bind(
            StrategyContext(
                neighborhood_id=0,
                capacity_bytes=5_000.0,
                footprint_of=lambda pid: 100.0,
            )
        )
        for i in range(10_000):
            strategy.on_access(float(i), (i * 7919) % 200)
        return len(strategy.members)

    members = benchmark(run)
    assert members == 50


def test_placement_churn_throughput(benchmark):
    """Evict-then-admit 5k 14-segment programs on 80 peers x 2 GB.

    The churn-sweep shape of the ``cache.placement`` layer: six slots
    per peer hold 34 programs, so every further admission first evicts
    the oldest resident one.
    """
    length = 14 * units.SEGMENT_SECONDS

    def run():
        placement = PlacementMap([peer_slots(2e9)] * 80)
        resident = deque()
        for program_id in range(5_000):
            if len(resident) == 34:
                placement.remove_programs((resident.popleft(),))
            placement.place_program(Program(program_id, length))
            resident.append(program_id)
        return placement.placed_programs

    placed = benchmark(run)
    assert placed == 34


def test_meter_throughput(benchmark):
    """Meter 50k hour-spanning intervals."""

    def run():
        meter = HourlyMeter()
        for i in range(50_000):
            meter.add_interval(i * 97.0, 300.0, rate_bps=8.06e6)
        return meter.total_bits()

    total = benchmark(run)
    assert total > 0


def test_meter_single_bucket_throughput(benchmark):
    """Meter 50k intervals that each fit inside one hour (the fast path).

    This is the shape the simulation hot path produces: a 5-minute
    delivery almost always lands inside a single hourly bucket.
    """

    def run():
        meter = HourlyMeter()
        for i in range(50_000):
            meter.add_interval((i % 11) * 300.0, 300.0, rate_bps=8.06e6)
        return meter.total_bits()

    total = benchmark(run)
    assert total > 0


def test_end_to_end_replay_bucket(benchmark):
    """Full-system replay on the arc/bucket engine (the default path)."""
    model = PowerInfoModel(n_users=500, n_programs=100, days=3.0, seed=5)
    trace = generate_trace(model)
    config = SimulationConfig(neighborhood_size=60, warmup_days=0.5)
    result = benchmark.pedantic(
        run_simulation, args=(trace, config), kwargs={"engine": "bucket"},
        rounds=1, iterations=1,
    )
    assert result.counters.sessions == len(trace)


def test_workload_generation(benchmark):
    """Generate a 500-user, 3-day synthetic trace."""
    model = PowerInfoModel(n_users=500, n_programs=100, days=3.0, seed=5)
    trace = benchmark.pedantic(generate_trace, args=(model,), rounds=1,
                               iterations=1)
    assert len(trace) > 100
