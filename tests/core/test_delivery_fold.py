"""The delivery fold is invisible: results do not depend on flush size.

The scalar engines log one outcome code per delivery and fold the log
into counters and meters every ``FLUSH_ROWS`` deliveries (and once
before the result is built); the columnar engine folds once per
schedule window.  Each flush seeds the touched meter buckets with their
current values, so every bucket sees the same float additions as one
``add_interval`` per delivery.  These tests pin that: the result digest
of every drain -- bucket, columnar, streamed and sharded on either
engine, live -- is one value for any flush size (and any columnar
window width and chunking), on the numpy fold and on the scalar fold.
"""

from __future__ import annotations

import pytest

from bench.checks import result_digest
from repro import units
from repro.core import system as system_module
from repro.core.config import SimulationConfig
from repro.core.parallel import ShardSpec, SimulationTask
from repro.core.shard import (
    run_sharded,
    shard_neighborhood_groups,
    split_shard_slices,
)
from repro.core.system import CableVoDSystem, columnar_supported
from repro.live import AdmissionController, FairnessSpec, ThrottleSpec
from repro.trace.records import TraceChunk
from repro.trace.share import attach_columns, attach_trace, unlink_slice
from repro.trace.streaming import open_trace_stream
from repro.trace.synthetic import PowerInfoModel
from repro.trace.workload import Workload, cached_workload_trace

MODEL = PowerInfoModel(n_users=240, n_programs=40, days=2.0, seed=21)
CONFIG = SimulationConfig(neighborhood_size=60, per_peer_storage_gb=2.0,
                          warmup_days=0.0)
FLUSH_SIZES = (1, 7, 100, system_module.FLUSH_ROWS)


def _drain_digests() -> dict:
    """Digest of every drain of MODEL under CONFIG, by drain name."""
    trace = cached_workload_trace(Workload(model=MODEL))
    stream = open_trace_stream(MODEL, chunk_hours=3)
    live = CableVoDSystem(trace, CONFIG).run(admission=AdmissionController(
        throttle=ThrottleSpec(), fairness=FairnessSpec()))
    live.live = None  # the admission tallies are not part of the plant
    results = {
        "bucket": CableVoDSystem(trace, CONFIG, engine="bucket").run(),
        "columnar": CableVoDSystem(trace, CONFIG, engine="columnar").run(),
        "live-noop": live,
    }
    for engine, prefix in (("bucket", ""), ("columnar", "columnar-")):
        results[prefix + "streamed"] = CableVoDSystem(
            None, CONFIG, engine=engine, catalog=stream.catalog,
            n_users=stream.n_users,
        ).run(stream.chunks())
        results[prefix + "2-shard"] = run_sharded(
            MODEL, CONFIG, n_shards=2, engine=engine, workers=1)
    return {name: result_digest(result) for name, result in results.items()}


@pytest.fixture(scope="module")
def reference() -> str:
    """The bucket digest at one delivery per flush on the scalar fold.

    That is one ``add_interval`` per meter per delivery in delivery
    order: the metering every engine must reproduce.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ENGINE", "python")
        patch.setattr(system_module, "FLUSH_ROWS", 1)
        trace = cached_workload_trace(Workload(model=MODEL))
        return result_digest(CableVoDSystem(trace, CONFIG).run())


def test_deliveries_straddle_hour_boundaries():
    """The trace exercises the split path of the meters."""
    trace = cached_workload_trace(Workload(model=MODEL))
    straddling = 0
    for record in trace:
        now = record.start_time
        while now < record.end_time:
            watch = min(units.SEGMENT_SECONDS, record.end_time - now)
            if int(now // 3600) != int((now + watch) // 3600):
                straddling += 1
            now += units.SEGMENT_SECONDS
    assert straddling >= 20


@pytest.mark.parametrize("fold", ["numpy", "python"])
@pytest.mark.parametrize("rows", FLUSH_SIZES)
def test_every_drain_matches_at_every_flush_size(monkeypatch, reference,
                                                 fold, rows):
    if fold == "numpy" and not columnar_supported():
        pytest.skip("needs numpy")
    if fold == "python":
        monkeypatch.setenv("REPRO_ENGINE", "python")
    monkeypatch.setattr(system_module, "FLUSH_ROWS", rows)
    assert _drain_digests() == dict.fromkeys(
        ("bucket", "columnar", "streamed", "2-shard", "live-noop",
         "columnar-streamed", "columnar-2-shard"), reference
    )


@pytest.mark.parametrize("width", [1, 72, 10 ** 9])
def test_columnar_matches_at_every_window_width(monkeypatch, reference, width):
    """One fold per schedule window, whatever the window width."""
    if not columnar_supported():
        pytest.skip("needs numpy")
    from repro.sim import columnar

    monkeypatch.setattr(columnar, "WINDOW_TICKS", width)
    trace = cached_workload_trace(Workload(model=MODEL))
    result = CableVoDSystem(trace, CONFIG, engine="columnar").run()
    assert result_digest(result) == reference


def _shard_slice_runs(engine):
    """``engine`` over a gappy 1-hour shard-slice stream, and materialized.

    One shard of four holds one 60-user neighborhood, so some hours have
    no rows and the split leaves their chunks out of the slice file.
    """
    task = SimulationTask(workload=Workload(model=MODEL), config=CONFIG,
                          shard=ShardSpec(n_shards=4, index=1,
                                          streaming=True, chunk_hours=1))
    ids = shard_neighborhood_groups(task.workload, CONFIG, 4)[1]
    handles = split_shard_slices(task)
    try:
        handle = handles[1]
        assert handle.n_chunks < MODEL.days * 24  # chunks are missing
        with attach_columns(handle) as reader:
            chunked = CableVoDSystem(
                None, CONFIG, engine=engine, neighborhood_ids=ids,
                catalog=reader.catalog, n_users=reader.n_users,
            ).run(reader.chunks())
        materialized = CableVoDSystem(attach_trace(handle), CONFIG,
                                      engine=engine,
                                      neighborhood_ids=ids).run()
    finally:
        for handle in handles:
            unlink_slice(handle.path)
    return chunked, materialized


@pytest.mark.parametrize("width", [1, 72])
@pytest.mark.parametrize("chunking", ["1h", "3h", "24h", "one-chunk"])
def test_columnar_chunk_drains_match_the_materialized_run(
        monkeypatch, reference, chunking, width):
    """Columnar over any chunking equals the materialized columnar run.

    ``one-chunk`` is the whole trace with window bounds 0, so its
    windows are only final at exhaustion.
    """
    if not columnar_supported():
        pytest.skip("needs numpy")
    from repro.sim import columnar

    monkeypatch.setattr(columnar, "WINDOW_TICKS", width)
    trace = cached_workload_trace(Workload(model=MODEL))
    if chunking == "one-chunk":
        chunks = [TraceChunk(0, 0, 0, *trace.columns())]
    else:
        chunks = open_trace_stream(
            MODEL, chunk_hours=int(chunking[:-1])).chunks()
    result = CableVoDSystem(None, CONFIG, engine="columnar",
                            catalog=trace.catalog,
                            n_users=trace.n_users).run(chunks)
    materialized = CableVoDSystem(trace, CONFIG, engine="columnar").run()
    assert result_digest(result) == result_digest(materialized) == reference
    assert result.trace_end_time == materialized.trace_end_time


@pytest.mark.parametrize("width", [1, 72])
def test_columnar_shard_slice_stream_matches(monkeypatch, width):
    """A gappy shard-slice stream equals its materialized slice."""
    if not columnar_supported():
        pytest.skip("needs numpy")
    from repro.sim import columnar

    monkeypatch.setattr(columnar, "WINDOW_TICKS", width)
    chunked, materialized = _shard_slice_runs("columnar")
    bucket, _ = _shard_slice_runs("bucket")
    assert (result_digest(chunked) == result_digest(materialized)
            == result_digest(bucket))
    assert chunked.trace_end_time == materialized.trace_end_time


def test_log_stays_bounded(monkeypatch):
    """The log never holds more than FLUSH_ROWS deliveries."""
    monkeypatch.setattr(system_module, "FLUSH_ROWS", 7)
    trace = cached_workload_trace(Workload(model=MODEL))
    system = CableVoDSystem(trace, CONFIG, engine="bucket")
    longest = [0]
    flush = system._flush

    def watched_flush():
        longest[0] = max(longest[0], len(system._log))
        flush()

    monkeypatch.setattr(system, "_flush", watched_flush)
    result = system.run()
    assert longest[0] == 4 * 7
    assert system._log == []
    assert result.counters.segment_requests > 7
