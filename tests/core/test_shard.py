"""Sharded metro replay must be bit-identical to the monolithic run.

The shard cut is only admissible because neighborhoods never interact:
for any shard count, any worker count, streamed or materialized, the
merged result must reproduce the monolithic engines byte for byte --
counters, ``events_processed``, every meter bucket, and the per-
neighborhood meter dictionaries.  These tests pin that invariance and
the planner's deliberate rejections (global popularity feeds, streamed
future knowledge, streamed transforms, sharded baselines).  The
count-the-generations tests pin the data path: one trace pass per
sharded run and at most one placement build per process, for any
worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys

import pytest

from repro.cache.factory import GlobalLFUSpec, LFUSpec, LRUSpec, OracleSpec
from repro.core.config import SimulationConfig
from repro.core.parallel import ShardSpec, SimulationTask
from repro.core.runner import run_simulation
from repro.core.shard import (
    run_sharded,
    shard_neighborhood_groups,
    workload_n_users,
)
from repro.core.system import columnar_supported
from repro.errors import ConfigurationError, TopologyError
from repro.topology import placement
from repro.topology.sharding import n_neighborhoods_for, partition_neighborhoods
from repro.trace import streaming
from repro.trace.streaming import DEFAULT_CHUNK_HOURS
from repro.trace.synthetic import PowerInfoModel
from repro.trace.workload import Workload, cached_workload_trace

from tests.conftest import preserved_trace_backend

#: Ten neighborhoods at size 60, so every shard count up to 8 cuts.
METRO = PowerInfoModel(n_users=600, n_programs=50, days=2.0, seed=5)

needs_fork = pytest.mark.skipif(
    mp.get_start_method(allow_none=False) != "fork",
    reason="counting propagates to workers via fork only",
)


def _numpy_installed():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _config(strategy=None):
    return SimulationConfig(
        neighborhood_size=60,
        warmup_days=0.5,
        strategy=strategy if strategy is not None else LFUSpec(),
    )


def assert_identical(a, b):
    """Byte-for-byte equality of everything the paper reports.

    Extends the engine-equivalence check with the per-neighborhood
    meter dicts the shard merge reduces over, and the trace end time
    the extrapolation divides by.
    """
    assert a.counters == b.counters
    assert a.events_processed == b.events_processed
    assert a.trace_end_time == b.trace_end_time
    assert a.server_meter.buckets() == b.server_meter.buckets()
    assert a.total_meter.buckets() == b.total_meter.buckets()
    for name in ("coax_meters", "upstream_meters", "total_meters",
                 "server_meters"):
        ours, theirs = getattr(a, name), getattr(b, name)
        assert set(ours) == set(theirs)
        for key in ours:
            assert ours[key].buckets() == theirs[key].buckets()


class TestPartition:
    def test_neighborhood_count_is_ceiling(self):
        assert n_neighborhoods_for(300, 60) == 5
        assert n_neighborhoods_for(301, 60) == 6
        assert n_neighborhoods_for(1, 60) == 1

    def test_groups_are_contiguous_balanced_and_complete(self):
        for count in (1, 5, 7, 12):
            for shards in range(1, count + 1):
                groups = partition_neighborhoods(count, shards)
                assert len(groups) == shards
                sizes = [len(g) for g in groups]
                assert max(sizes) - min(sizes) <= 1
                flat = [nid for group in groups for nid in group]
                assert flat == list(range(count))

    def test_rejects_more_shards_than_neighborhoods(self):
        with pytest.raises(TopologyError):
            partition_neighborhoods(3, 4)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(TopologyError):
            partition_neighborhoods(0, 1)
        with pytest.raises(TopologyError):
            partition_neighborhoods(5, 0)

    def test_plan_matches_workload_arithmetic(self, tiny_model):
        workload = Workload(model=tiny_model)
        assert workload_n_users(workload) == tiny_model.n_users
        groups = shard_neighborhood_groups(workload, _config(), 2)
        total = n_neighborhoods_for(tiny_model.n_users, 60)
        assert [nid for g in groups for nid in g] == list(range(total))


class TestShardSpecValidation:
    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(n_shards=0, index=0)
        with pytest.raises(ConfigurationError):
            ShardSpec(n_shards=2, index=2)
        with pytest.raises(ConfigurationError):
            ShardSpec(n_shards=2, index=-1)

    def test_default_chunk_span_is_the_stream_default(self):
        assert ShardSpec(n_shards=1, index=0).chunk_hours == DEFAULT_CHUNK_HOURS

    def test_rejects_bad_chunk_hours(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(n_shards=1, index=0, chunk_hours=0)

    def test_shard_task_rejects_baselines(self, tiny_model):
        with pytest.raises(ConfigurationError):
            SimulationTask(
                workload=Workload(model=tiny_model),
                config=_config(),
                baselines=("no_cache",),
                shard=ShardSpec(n_shards=2, index=0),
            )


class TestShardInvariance:
    """Merged shard results vs. the monolithic engines, bit for bit."""

    @pytest.mark.parametrize("n_shards", [2, 3, 4])
    @pytest.mark.parametrize("strategy", [LFUSpec(), LRUSpec()],
                             ids=["lfu", "lru"])
    def test_matches_monolithic_bucket(self, tiny_model, n_shards, strategy):
        config = _config(strategy)
        trace = cached_workload_trace(Workload(model=tiny_model))
        mono = run_simulation(trace, config, engine="bucket")
        sharded = run_sharded(tiny_model, config, n_shards=n_shards,
                              engine="bucket", workers=1)
        assert_identical(sharded, mono)

    def test_matches_monolithic_columnar(self, tiny_model):
        if not columnar_supported():
            pytest.skip("columnar gate closed (numpy absent or forced python)")
        config = _config()
        trace = cached_workload_trace(Workload(model=tiny_model))
        mono = run_simulation(trace, config, engine="columnar")
        sharded = run_sharded(tiny_model, config, n_shards=3,
                              engine="columnar", workers=1)
        assert_identical(sharded, mono)

    def test_single_shard_matches_monolithic(self, tiny_model):
        config = _config()
        trace = cached_workload_trace(Workload(model=tiny_model))
        mono = run_simulation(trace, config, engine="bucket")
        sharded = run_sharded(tiny_model, config, n_shards=1,
                              engine="bucket", workers=1)
        assert_identical(sharded, mono)

    def test_pool_workers_match_serial(self, tiny_model):
        config = _config()
        serial = run_sharded(tiny_model, config, n_shards=3, workers=1)
        pooled = run_sharded(tiny_model, config, n_shards=3, workers=2)
        assert_identical(pooled, serial)

    def test_oracle_shards_exactly(self, tiny_model):
        config = _config(OracleSpec())
        trace = cached_workload_trace(Workload(model=tiny_model))
        mono = run_simulation(trace, config, engine="bucket")
        sharded = run_sharded(tiny_model, config, n_shards=2,
                              engine="bucket", workers=1)
        assert_identical(sharded, mono)

    def test_rejects_overcut_plant(self, tiny_model):
        # tiny_model has 5 neighborhoods at size 60; 6 shards cannot cut.
        with pytest.raises(TopologyError):
            run_sharded(tiny_model, _config(), n_shards=6, workers=1)


class TestStreamingReplay:
    def test_streamed_shards_match_monolithic(self, tiny_model):
        config = _config()
        trace = cached_workload_trace(Workload(model=tiny_model))
        mono = run_simulation(trace, config, engine="bucket")
        for n_shards in (1, 3):
            streamed = run_sharded(tiny_model, config, n_shards=n_shards,
                                   streaming=True, workers=1)
            assert_identical(streamed, mono)

    def test_streamed_pool_matches_serial(self, tiny_model):
        config = _config(LRUSpec())
        serial = run_sharded(tiny_model, config, n_shards=2, streaming=True,
                             workers=1)
        pooled = run_sharded(tiny_model, config, n_shards=2, streaming=True,
                             workers=2)
        assert_identical(pooled, serial)

    def test_chunk_size_is_invisible(self, tiny_model):
        config = _config()
        one = run_sharded(tiny_model, config, n_shards=2, streaming=True,
                          chunk_hours=1, workers=1)
        big = run_sharded(tiny_model, config, n_shards=2, streaming=True,
                          chunk_hours=48, workers=1)
        assert_identical(one, big)


class TestPlannerRejections:
    def test_global_feed_cannot_shard(self, tiny_model):
        with pytest.raises(ConfigurationError):
            run_sharded(tiny_model, _config(GlobalLFUSpec()), n_shards=2,
                        workers=1)

    def test_global_feed_single_shard_is_fine(self, tiny_model):
        trace = cached_workload_trace(Workload(model=tiny_model))
        mono = run_simulation(trace, _config(GlobalLFUSpec()), engine="bucket")
        single = run_sharded(tiny_model, _config(GlobalLFUSpec()), n_shards=1,
                             engine="bucket", workers=1)
        assert_identical(single, mono)

    def test_oracle_cannot_stream(self, tiny_model):
        with pytest.raises(ConfigurationError):
            run_sharded(tiny_model, _config(OracleSpec()), n_shards=2,
                        streaming=True, workers=1)

    def test_transforms_cannot_stream(self, tiny_model):
        workload = Workload(model=tiny_model, population_x=2)
        with pytest.raises(ConfigurationError):
            run_sharded(workload, _config(), n_shards=2, streaming=True,
                        workers=1)

    def test_transformed_workload_shards_exactly(self, tiny_model):
        workload = Workload(model=tiny_model, population_x=2)
        config = _config()
        trace = cached_workload_trace(workload)
        mono = run_simulation(trace, config, engine="bucket")
        sharded = run_sharded(workload, config, n_shards=3, engine="bucket",
                              workers=1)
        assert_identical(sharded, mono)


@pytest.fixture
def backend(request, monkeypatch):
    """Pin the trace generator backend for one test."""
    if request.param == "numpy" and not _numpy_installed():
        pytest.skip("numpy backend needs numpy")
    with preserved_trace_backend():
        monkeypatch.setenv("REPRO_TRACE_BACKEND", request.param)
        yield request.param


class TestSliceBitIdentity:
    """Every shard count, both data modes, both generator backends."""

    @pytest.mark.parametrize("backend", ["numpy", "python"], indirect=True)
    @pytest.mark.parametrize("streaming", [False, True],
                             ids=["materialized", "streamed"])
    def test_matches_monolithic(self, backend, streaming):
        config = _config()
        trace = cached_workload_trace(Workload(model=METRO))
        mono = run_simulation(trace, config, engine="bucket")
        for n_shards in (1, 2, 3, 8):
            sharded = run_sharded(METRO, config, n_shards=n_shards,
                                  engine="bucket", streaming=streaming,
                                  workers=1)
            assert_identical(sharded, mono)

    def test_python_splitter_matches_monolithic(self, monkeypatch):
        # The pure-python leg splits without numpy; hide numpy to take
        # that branch on any host.
        config = _config()
        with preserved_trace_backend():
            monkeypatch.setenv("REPRO_TRACE_BACKEND", "python")
            mono = run_simulation(
                cached_workload_trace(Workload(model=METRO)), config,
                engine="bucket")
            monkeypatch.setitem(sys.modules, "numpy", None)
            for streaming_mode in (False, True):
                sharded = run_sharded(METRO, config, n_shards=3,
                                      engine="bucket",
                                      streaming=streaming_mode, workers=1)
                assert_identical(sharded, mono)


@needs_fork
class TestCountTheGenerations:
    """One trace pass per sharded run; one plant per process."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_stream_pass_and_one_plant_per_process(self, workers,
                                                       monkeypatch, tmp_path):
        passes = mp.Value("i", 0)
        builds = tmp_path / "builds"
        real_chunks = streaming.TraceStream.chunks
        real_place = placement.place_users

        def counting_chunks(self):
            with passes.get_lock():
                passes.value += 1
            return real_chunks(self)

        def counting_place(*args):
            with open(builds, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_place(*args)

        monkeypatch.setattr(streaming.TraceStream, "chunks", counting_chunks)
        monkeypatch.setattr(placement, "place_users", counting_place)
        placement.shared_plant.cache_clear()
        config = _config()
        first = run_sharded(METRO, config, n_shards=8, streaming=True,
                            workers=workers)
        assert passes.value == 1
        pids = builds.read_text().split()
        assert len(pids) == len(set(pids)) <= workers + 1
        # A second sharded run pays its own single pass.
        second = run_sharded(METRO, config, n_shards=3, streaming=True,
                             workers=workers)
        assert passes.value == 2
        assert_identical(first, second)

    def test_runs_differing_only_in_strategy_share_one_split(self,
                                                            monkeypatch):
        from repro.scenario import Scenario
        from repro.scenario.runner import run_scenarios

        passes = mp.Value("i", 0)
        real_chunks = streaming.TraceStream.chunks

        def counting_chunks(self):
            with passes.get_lock():
                passes.value += 1
            return real_chunks(self)

        monkeypatch.setattr(streaming.TraceStream, "chunks", counting_chunks)
        scenarios = [
            Scenario(trace=METRO, shards=4, streaming=True,
                     config=_config(strategy))
            for strategy in (LFUSpec(), LRUSpec())
        ]
        results = run_scenarios(scenarios, workers=2)
        assert passes.value == 1
        for scenario, result in zip(scenarios, results):
            mono = run_simulation(cached_workload_trace(Workload(model=METRO)),
                                  scenario.config, engine="bucket")
            assert_identical(result, mono)

    def test_materialized_split_generates_once(self, monkeypatch):
        from repro.trace import synthetic, workload as workload_mod

        synthetic._cached_trace.cache_clear()
        workload_mod._cached_transformed_trace.cache_clear()
        generations = mp.Value("i", 0)
        real_generate = synthetic.generate_trace

        def counting(model, backend=None):
            with generations.get_lock():
                generations.value += 1
            return real_generate(model, backend=backend)

        monkeypatch.setattr(synthetic, "generate_trace", counting)
        run_sharded(METRO, _config(), n_shards=8, workers=2)
        assert generations.value == 1
