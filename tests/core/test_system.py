"""End-to-end system integration on small synthetic workloads."""

import dataclasses

import pytest

from repro import units
from repro.cache.factory import (
    GlobalLFUSpec,
    LFUSpec,
    LRUSpec,
    NoCacheSpec,
    OracleSpec,
)
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.core.system import CableVoDSystem, columnar_supported
from repro.baselines.no_cache import no_cache_peak_gbps
from repro.errors import SimulationError
from repro.live import AdmissionController
from repro.trace.streaming import open_trace_stream
from repro.trace.records import Catalog, Program, SessionRecord, Trace


def config(**kwargs):
    defaults = dict(neighborhood_size=100, per_peer_storage_gb=10.0,
                    warmup_days=0.0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestConservationLaws:
    def test_every_session_processed(self, tiny_trace):
        result = run_simulation(tiny_trace, config())
        assert result.counters.sessions == len(tiny_trace)

    def test_total_meter_equals_trace_bits(self, tiny_trace):
        result = run_simulation(tiny_trace, config())
        assert result.total_meter.total_bits() == pytest.approx(
            tiny_trace.total_bits_delivered(), rel=1e-6
        )

    def test_server_bits_never_exceed_total(self, tiny_trace):
        result = run_simulation(tiny_trace, config(strategy=LFUSpec()))
        assert (
            result.server_meter.total_bits()
            <= result.total_meter.total_bits() + 1e-6
        )

    def test_hits_plus_server_deliveries_cover_requests(self, tiny_trace):
        result = run_simulation(tiny_trace, config(strategy=LFUSpec()))
        counters = result.counters
        assert (
            counters.peer_hits + counters.local_hits + counters.server_deliveries
            == counters.segment_requests
        )

    def test_no_cache_server_equals_total(self, tiny_trace):
        result = run_simulation(tiny_trace, config(strategy=NoCacheSpec()))
        assert result.server_meter.total_bits() == pytest.approx(
            result.total_meter.total_bits(), rel=1e-9
        )
        assert result.counters.hits == 0

    def test_no_cache_matches_analytic_baseline(self, tiny_trace):
        result = run_simulation(tiny_trace, config(strategy=NoCacheSpec()))
        assert result.peak_server_gbps() == pytest.approx(
            no_cache_peak_gbps(tiny_trace), rel=1e-9
        )


class TestCachingEffect:
    def test_lfu_reduces_server_load(self, small_trace):
        cached = run_simulation(small_trace, config(strategy=LFUSpec()))
        assert cached.peak_reduction() > 0.1
        assert cached.counters.hits > 0

    def test_oracle_not_worse_than_lfu(self, small_trace):
        oracle = run_simulation(small_trace, config(strategy=OracleSpec()))
        lfu = run_simulation(small_trace, config(strategy=LFUSpec()))
        assert oracle.peak_server_gbps() <= lfu.peak_server_gbps() * 1.05

    def test_lfu_not_worse_than_lru(self, small_trace):
        lfu = run_simulation(small_trace, config(strategy=LFUSpec()))
        lru = run_simulation(small_trace, config(strategy=LRUSpec()))
        assert lfu.peak_server_gbps() <= lru.peak_server_gbps() * 1.05

    def test_bigger_cache_not_worse(self, small_trace):
        small = run_simulation(
            small_trace, config(strategy=LFUSpec(), per_peer_storage_gb=1.0)
        )
        large = run_simulation(
            small_trace, config(strategy=LFUSpec(), per_peer_storage_gb=10.0)
        )
        assert large.peak_server_gbps() <= small.peak_server_gbps() * 1.02

    def test_global_lfu_runs_and_caches(self, small_trace):
        result = run_simulation(
            small_trace, config(strategy=GlobalLFUSpec(lag_seconds=1800.0))
        )
        assert result.counters.hits > 0

    def test_zero_storage_behaves_like_no_cache(self, tiny_trace):
        result = run_simulation(
            tiny_trace, config(strategy=LFUSpec(), per_peer_storage_gb=0.0)
        )
        assert result.counters.hits == 0
        assert result.server_meter.total_bits() == pytest.approx(
            result.total_meter.total_bits(), rel=1e-9
        )


class TestDeterminism:
    def test_identical_runs_identical_results(self, tiny_trace):
        a = run_simulation(tiny_trace, config(strategy=LFUSpec()))
        b = run_simulation(tiny_trace, config(strategy=LFUSpec()))
        assert a.peak_server_gbps() == b.peak_server_gbps()
        assert a.counters.peer_hits == b.counters.peer_hits
        assert a.counters.fills == b.counters.fills

    def test_placement_shared_across_strategies(self, tiny_trace):
        lru = CableVoDSystem(tiny_trace, config(strategy=LRUSpec()))
        lfu = CableVoDSystem(tiny_trace, config(strategy=LFUSpec()))
        assert [n.user_ids for n in lru.plant] == [n.user_ids for n in lfu.plant]


class TestSegmentProcess:
    def _one_session_trace(self, duration_seconds, length_seconds=1800.0):
        catalog = Catalog([Program(0, length_seconds)])
        record = SessionRecord(0.0, 0, 0, duration_seconds)
        return Trace([record], catalog, n_users=4)

    def test_segment_count_for_full_view(self):
        trace = self._one_session_trace(1800.0)  # 6 segments
        result = run_simulation(trace, config(neighborhood_size=4))
        assert result.counters.segment_requests == 6

    def test_segment_count_for_partial_view(self):
        trace = self._one_session_trace(750.0)  # 2.5 segments
        result = run_simulation(trace, config(neighborhood_size=4))
        assert result.counters.segment_requests == 3

    def test_short_session_single_segment(self):
        trace = self._one_session_trace(30.0)
        result = run_simulation(trace, config(neighborhood_size=4))
        assert result.counters.segment_requests == 1

    def test_bits_match_watched_seconds(self):
        trace = self._one_session_trace(750.0)
        result = run_simulation(trace, config(neighborhood_size=4))
        assert result.total_meter.total_bits() == pytest.approx(
            750.0 * units.STREAM_RATE_BPS
        )

    def test_full_program_length_never_overruns(self):
        # A full view of a program whose length is an exact segment
        # multiple must not request a segment past the end.
        trace = self._one_session_trace(3600.0, length_seconds=3600.0)
        result = run_simulation(trace, config(neighborhood_size=4))
        assert result.counters.segment_requests == 12


class TestCoaxAccounting:
    def test_coax_traffic_present_in_every_neighborhood(self, small_trace):
        result = run_simulation(small_trace, config(strategy=LFUSpec()))
        for meter in result.coax_meters.values():
            assert meter.total_bits() > 0

    def test_coax_equals_total_minus_local_hits(self, small_trace):
        result = run_simulation(small_trace, config(strategy=LFUSpec()))
        coax_total = sum(m.total_bits() for m in result.coax_meters.values())
        assert coax_total <= result.total_meter.total_bits() + 1e-6


class TestOneReplayPerSystem:
    """A system replays once; a second drain fails instead of accumulating."""

    DRAINS = {
        "columnar": lambda system, model: system.run(),
        "bucket": lambda system, model: system.run(),
        "streaming": lambda system, model: system.run(
            open_trace_stream(model).chunks()),
        "live": lambda system, model: system.run(
            admission=AdmissionController()),
    }

    @pytest.mark.parametrize("drain", sorted(DRAINS))
    def test_second_run_raises_and_leaves_the_first_result(
            self, tiny_model, tiny_trace, drain):
        if drain == "streaming":
            stream = open_trace_stream(tiny_model)
            system = CableVoDSystem(None, config(), catalog=stream.catalog,
                                    n_users=stream.n_users)
        else:
            engine = "columnar" if drain == "columnar" else "bucket"
            system = CableVoDSystem(tiny_trace, config(), engine=engine)
        replay = self.DRAINS[drain]
        first = replay(system, tiny_model)
        counters = dataclasses.replace(first.counters)
        buckets = first.server_meters[0].buckets()
        with pytest.raises(SimulationError, match="already ran"):
            replay(system, tiny_model)
        assert first.counters == counters
        assert first.counters.sessions == len(tiny_trace)
        assert first.server_meters[0].buckets() == buckets

    @pytest.mark.parametrize("engine, refused", [
        ("columnar", "admission"),
        ("bucket", "traceless"),
    ])
    def test_refused_run_claims_nothing(
            self, tiny_model, tiny_trace, engine, refused):
        """A refused ``run()`` claims nothing: a valid call still replays."""
        if engine == "columnar" and not columnar_supported():
            pytest.skip("columnar demotes to bucket without numpy")
        stream = open_trace_stream(tiny_model)
        if refused == "traceless":
            system = CableVoDSystem(None, config(), catalog=stream.catalog,
                                    n_users=stream.n_users)
        else:
            system = CableVoDSystem(tiny_trace, config(), engine=engine)
        with pytest.raises(SimulationError):
            if refused == "admission":
                system.run(admission=AdmissionController())
            else:
                system.run()
        if refused == "traceless":
            result = system.run(stream.chunks())
        else:
            result = system.run()
        assert result.counters.sessions == len(tiny_trace)

    def test_columnar_chunk_run_equals_own_trace_run(self, tiny_model,
                                                     tiny_trace):
        """Columnar drains chunks: ``run(chunks)`` equals ``run()``."""
        if not columnar_supported():
            pytest.skip("columnar demotes to bucket without numpy")
        from bench.checks import result_digest

        own = CableVoDSystem(tiny_trace, config(), engine="columnar").run()
        chunked = CableVoDSystem(tiny_trace, config(), engine="columnar").run(
            open_trace_stream(tiny_model, chunk_hours=3).chunks())
        assert result_digest(chunked) == result_digest(own)
        assert chunked.trace_end_time == own.trace_end_time


class TestMediaServerMeter:
    @pytest.mark.parametrize("engine", ["bucket", "columnar"])
    def test_media_server_meters_what_the_result_reports(self, tiny_trace,
                                                         engine):
        system = CableVoDSystem(tiny_trace, config(strategy=LFUSpec()),
                                engine=engine)
        result = system.run()
        media = system.media_server
        assert media.meter.buckets() == result.server_meter.buckets()
        assert media.total_bits() > 0
        assert media.deliveries == result.counters.server_deliveries


class TestCatalogTables:
    """Segment counts are computed once per catalog, not per neighborhood."""

    def test_multi_neighborhood_builds_count_each_program_once(
            self, monkeypatch):
        from repro.trace.synthetic import PowerInfoModel

        model = PowerInfoModel(n_users=600, n_programs=50, days=2.0, seed=5)
        stream = open_trace_stream(model)
        catalog = Catalog(stream.catalog.programs)  # no table built yet
        calls = []
        real = Program.num_segments

        def counting(program):
            calls.append(program.program_id)
            return real.fget(program)

        monkeypatch.setattr(Program, "num_segments", property(counting))
        cfg = config(neighborhood_size=60, strategy=LFUSpec())
        system = CableVoDSystem(None, cfg, catalog=catalog,
                                n_users=stream.n_users)
        assert len(system._servers) == 10
        for group in ([0, 1, 2], [3, 4, 5, 6], [7, 8, 9]):  # shard-shaped
            CableVoDSystem(None, cfg, catalog=catalog, n_users=stream.n_users,
                           neighborhood_ids=group)
        result = system.run(open_trace_stream(model).chunks())
        assert result.counters.admissions > 0
        assert sorted(calls) == list(range(len(catalog)))
