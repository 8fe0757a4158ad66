"""The delivery fold is invisible: results do not depend on flush size.

The scalar engines log one outcome code per delivery and fold the log
into counters and meters every ``FLUSH_ROWS`` deliveries (and once
before the result is built); the columnar engine folds once per
schedule window.  Each flush seeds the touched meter buckets with their
current values, so every bucket sees the same float additions as one
``add_interval`` per delivery.  These tests pin that: the result digest
of every drain -- bucket, columnar, streamed, sharded, live -- is one
value for any flush size (and any columnar window width), on the numpy
fold and on the scalar fold.
"""

from __future__ import annotations

import pytest

from bench.checks import result_digest
from repro import units
from repro.core import system as system_module
from repro.core.config import SimulationConfig
from repro.core.shard import run_sharded
from repro.core.system import CableVoDSystem, columnar_supported
from repro.live import AdmissionController, FairnessSpec, ThrottleSpec
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
        "streamed": CableVoDSystem(
            None, CONFIG, catalog=stream.catalog, n_users=stream.n_users
        ).run(stream.chunks()),
        "2-shard": run_sharded(MODEL, CONFIG, n_shards=2, engine="bucket",
                               workers=1),
        "live-noop": live,
    }
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
        ("bucket", "columnar", "streamed", "2-shard", "live-noop"), reference
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
