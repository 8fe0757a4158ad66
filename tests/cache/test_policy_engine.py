"""The policy engine must be bit-identical to the classic strategies.

PR 2's refactor moved the paper's strategies onto the composable
admission/eviction engine and gave LFU a deferred, compacted heap.
That is only admissible because it changes *nothing* observable: the
classic implementations are kept as the trusted reference (built
through the test-local :class:`~tests.cache.helpers.ClassicSpec`; no
registered spec builds them), and these tests drive both through
identical access streams and full simulator runs, asserting
byte-for-byte equal membership decisions, counters and hourly meter
buckets -- the same discipline :mod:`tests.core.test_engine_equivalence`
applies to the event engine.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.factory import BuildInputs, GlobalLFUSpec, LFUSpec, LRUSpec
from repro.cache.lfu import LFUStrategy
from repro.cache.lru import LRUStrategy
from repro.cache.policies import (
    AlwaysAdmit,
    LFUEviction,
    LRUEviction,
    PolicyStrategy,
)
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation

from tests.cache.helpers import ClassicSpec, bind


def _stream(seed, n=600, programs=40, max_gap=900):
    rng = random.Random(seed)
    t = 0.0
    for _ in range(n):
        t += rng.uniform(1.0, max_gap)
        yield t, rng.randrange(programs)


def deltas(change):
    """``(admitted, evicted)`` as lists: the engine's no-op change is a
    shared instance with tuple fields, the classics' a fresh one."""
    return list(change.admitted), list(change.evicted)


def assert_same_decisions(classic, engine, seed, capacity=1000.0):
    bind(classic, capacity=capacity)
    bind(engine, capacity=capacity)
    for now, program_id in _stream(seed):
        reference = classic.on_access(now, program_id)
        candidate = engine.on_access(now, program_id)
        assert deltas(candidate) == deltas(reference)
        assert engine.members == classic.members
        assert engine.used_bytes == classic.used_bytes


class TestDecisionEquivalence:
    """Unit-level: identical MembershipChange sequences, access by access."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_lru_engine_matches_classic(self, seed):
        assert_same_decisions(
            LRUStrategy(),
            PolicyStrategy(AlwaysAdmit(), LRUEviction()),
            seed,
        )

    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("history_hours", [0.0, 0.5, 72.0, None])
    def test_lfu_engine_matches_classic(self, seed, history_hours):
        assert_same_decisions(
            LFUStrategy(history_hours=history_hours),
            PolicyStrategy(AlwaysAdmit(), LFUEviction(history_hours=history_hours)),
            seed,
        )

    def test_lfu_compaction_is_invisible(self):
        """A long member-heavy stream crosses the compaction threshold."""
        classic = LFUStrategy(history_hours=1.0)
        engine = PolicyStrategy(AlwaysAdmit(), LFUEviction(history_hours=1.0))
        bind(classic, capacity=500.0)
        bind(engine, capacity=500.0)
        t = 0.0
        for i in range(4_000):
            t += 7.0
            program_id = (i * i + i // 9) % 8  # few programs: mostly touches
            reference = classic.on_access(t, program_id)
            candidate = engine.on_access(t, program_id)
            assert deltas(candidate) == deltas(reference)
        assert engine.members == classic.members
        # The deferred heap must actually have compacted to stay O(live).
        assert len(engine.eviction._heap) < 4_000


class TestFullRunEquivalence:
    """System-level: same trace, classic vs engine, identical results."""

    @pytest.mark.parametrize(
        "spec_pair",
        [
            (ClassicSpec(LRUSpec()), LRUSpec()),
            (ClassicSpec(LFUSpec()), LFUSpec()),
            (ClassicSpec(LFUSpec(history_hours=6.0)), LFUSpec(history_hours=6.0)),
            (ClassicSpec(GlobalLFUSpec()), GlobalLFUSpec()),
            (
                ClassicSpec(GlobalLFUSpec(lag_seconds=1800.0)),
                GlobalLFUSpec(lag_seconds=1800.0),
            ),
        ],
        ids=["lru", "lfu", "lfu-6h", "global-lfu", "global-lfu-lag"],
    )
    def test_counters_and_meters_identical(self, tiny_trace, spec_pair):
        classic_spec, engine_spec = spec_pair
        results = []
        for spec in (classic_spec, engine_spec):
            config = SimulationConfig(
                neighborhood_size=60, warmup_days=0.5, strategy=spec
            )
            results.append(run_simulation(tiny_trace, config))
        reference, candidate = results
        assert candidate.counters == reference.counters
        assert candidate.events_processed == reference.events_processed
        assert candidate.server_meter.buckets() == reference.server_meter.buckets()
        assert candidate.total_meter.buckets() == reference.total_meter.buckets()
        for key in reference.coax_meters:
            assert (candidate.coax_meters[key].buckets()
                    == reference.coax_meters[key].buckets())
        for key in reference.upstream_meters:
            assert (candidate.upstream_meters[key].buckets()
                    == reference.upstream_meters[key].buckets())

    def test_classic_flag_builds_the_classic_classes(self):
        classic = ClassicSpec(LFUSpec()).build(BuildInputs(n_neighborhoods=1))
        engine = LFUSpec().build(BuildInputs(n_neighborhoods=1))
        assert isinstance(classic.strategies[0], LFUStrategy)
        assert isinstance(engine.strategies[0], PolicyStrategy)
        assert isinstance(engine.strategies[0].eviction, LFUEviction)
