"""Streaming generation: chunked output equal to batch, O(chunk) memory.

The stream is only admissible because it changes nothing observable:
concatenating its chunks must reproduce ``generate_trace`` exactly on
both backends, replaying its chunks through ``CableVoDSystem.run`` must
reproduce the materialized bucket replay byte for byte, and -- the
point of the whole exercise -- consuming it must never keep more than
one yielded chunk alive.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.core.system import CableVoDSystem
from repro.errors import ConfigurationError
from repro.trace.streaming import (
    DEFAULT_CHUNK_HOURS,
    TraceStream,
    open_trace_stream,
)
from repro.trace.synthetic import PowerInfoModel, generate_trace

from tests.conftest import preserved_trace_backend


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _backends():
    return ["python", "numpy"] if _numpy_available() else ["python"]


def assert_traces_equal(a, b):
    assert len(a) == len(b)
    assert a.n_users == b.n_users
    assert a.end_time == b.end_time
    assert a.columns() == b.columns()


class TestChunkShape:
    def test_chunks_ascend_and_stay_in_window(self, tiny_model):
        stream = open_trace_stream(tiny_model, chunk_hours=5)
        previous_end = 0
        for chunk in stream.chunks():
            assert len(chunk) > 0
            assert chunk.start_hour >= previous_end
            assert chunk.end_hour > chunk.start_hour
            previous_end = chunk.end_hour
            assert chunk.start_times == sorted(chunk.start_times)
            assert all(chunk.start_second <= t < chunk.end_second
                       for t in chunk.start_times)

    def test_records_match_columns(self, tiny_model):
        stream = open_trace_stream(tiny_model, chunk_hours=12)
        chunk = next(stream.chunks())
        records = stream.materialize().records_between(chunk.start_second,
                                                       chunk.end_second)
        assert [r.start_time for r in records] == chunk.start_times
        assert [r.user_id for r in records] == chunk.user_ids
        assert [r.program_id for r in records] == chunk.program_ids
        assert [r.duration_seconds for r in records] == chunk.durations

    def test_rejects_bad_chunk_hours(self, tiny_model):
        with pytest.raises(ConfigurationError):
            open_trace_stream(tiny_model, chunk_hours=0)


class TestBatchEquality:
    @pytest.mark.parametrize("backend", _backends())
    def test_materialize_equals_generate(self, tiny_model, backend):
        with preserved_trace_backend():
            batch = generate_trace(tiny_model, backend=backend)
            stream = open_trace_stream(tiny_model, backend=backend,
                                       chunk_hours=DEFAULT_CHUNK_HOURS)
            assert stream.backend == backend
            assert_traces_equal(stream.materialize(), batch)

    @pytest.mark.parametrize("backend", _backends())
    def test_chunk_span_is_invisible(self, tiny_model, backend):
        with preserved_trace_backend():
            reference = None
            for chunk_hours in (1, 7, 1000):
                stream = open_trace_stream(tiny_model, backend=backend,
                                           chunk_hours=chunk_hours)
                trace = stream.materialize()
                if reference is None:
                    reference = trace
                else:
                    assert_traces_equal(trace, reference)

    def test_restreamable(self, tiny_model):
        stream = open_trace_stream(tiny_model, chunk_hours=9)
        first = [(c.index, c.start_hour, c.end_hour, c.start_times,
                  c.user_ids) for c in stream.chunks()]
        second = [(c.index, c.start_hour, c.end_hour, c.start_times,
                   c.user_ids) for c in stream.chunks()]
        assert first == second


class TestBoundedMemory:
    def test_at_most_one_prior_chunk_survives(self, tiny_model):
        """Consuming the stream must not accumulate chunks.

        Weakrefs to yielded chunks must die as the consumer advances;
        only the chunk in hand (and transiently its predecessor, still
        referenced by the generator frame) may be alive.
        """
        stream = open_trace_stream(tiny_model, chunk_hours=2)
        refs = []
        for chunk in stream.chunks():
            refs.append(weakref.ref(chunk))
            del chunk
            gc.collect()
            alive = sum(1 for ref in refs if ref() is not None)
            assert alive <= 2
        assert len(refs) >= 3  # the probe actually exercised multiple chunks
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestStreamingReplay:
    def _config(self):
        return SimulationConfig(neighborhood_size=60, warmup_days=0.5)

    def test_streamed_replay_matches_materialized(self, tiny_model):
        config = self._config()
        trace = generate_trace(tiny_model)
        materialized = run_simulation(trace, config, engine="bucket")
        stream = open_trace_stream(tiny_model, chunk_hours=4)
        system = CableVoDSystem(None, config, engine="bucket",
                                catalog=stream.catalog,
                                n_users=stream.n_users)
        streamed = system.run(stream.chunks())
        assert streamed.counters == materialized.counters
        assert streamed.events_processed == materialized.events_processed
        assert streamed.trace_end_time == materialized.trace_end_time
        assert (streamed.server_meter.buckets()
                == materialized.server_meter.buckets())
        assert (streamed.total_meter.buckets()
                == materialized.total_meter.buckets())
