"""Slice files: round-trips, corruption guards, one format for both hand-offs."""

import dataclasses
import os
from array import array

import pytest

from repro.errors import TraceError
from repro.trace.records import Trace
from repro.trace.share import (
    SliceHandle,
    SliceReader,
    SliceWriter,
    attach_trace,
    publish_trace,
    unlink_slice,
)
from repro.trace.streaming import open_trace_stream
from repro.trace.synthetic import PowerInfoModel, generate_trace


@pytest.fixture(scope="module")
def shared_pair():
    model = PowerInfoModel(n_users=250, n_programs=40, days=2.0, seed=31)
    trace = generate_trace(model)
    handle = publish_trace(trace)
    yield trace, handle
    unlink_slice(handle.path)


def _write(stream, directory):
    writer = SliceWriter(stream.catalog, stream.n_users, directory=directory)
    for chunk in stream.chunks():
        writer.write_chunk(chunk.index, chunk.start_hour, chunk.end_hour,
                           array("d", chunk.start_times),
                           array("q", chunk.user_ids),
                           array("q", chunk.program_ids),
                           array("d", chunk.durations))
    return writer.close()


class TestRoundTrip:
    def test_records_identical(self, shared_pair):
        trace, handle = shared_pair
        attached = attach_trace(handle)
        assert list(attached) == list(trace)

    def test_metadata_identical(self, shared_pair):
        trace, handle = shared_pair
        attached = attach_trace(handle)
        assert attached.n_users == trace.n_users
        assert len(attached.catalog) == len(trace.catalog)
        assert [
            (p.program_id, p.length_seconds, p.introduced_at)
            for p in attached.catalog
        ] == [
            (p.program_id, p.length_seconds, p.introduced_at)
            for p in trace.catalog
        ]

    def test_attached_trace_queries_work(self, shared_pair):
        trace, handle = shared_pair
        attached = attach_trace(handle)
        assert attached.sessions_per_program() == trace.sessions_per_program()
        assert attached.end_time == trace.end_time

    def test_empty_trace_round_trips(self, tmp_path):
        from tests.conftest import make_catalog

        empty = Trace([], make_catalog(), n_users=5)
        handle = publish_trace(empty, directory=str(tmp_path))
        try:
            attached = attach_trace(handle)
            assert len(attached) == 0
            assert attached.n_users == 5
            assert len(attached.catalog) == len(empty.catalog)
        finally:
            unlink_slice(handle.path)

    def test_publish_respects_directory(self, shared_pair, tmp_path):
        trace, _ = shared_pair
        handle = publish_trace(trace, directory=str(tmp_path))
        try:
            assert os.path.dirname(handle.path) == str(tmp_path)
        finally:
            unlink_slice(handle.path)

    def test_chunks_and_catalog_round_trip(self, tiny_model, tmp_path):
        stream = open_trace_stream(tiny_model, chunk_hours=7)
        handle = _write(stream, str(tmp_path))
        reader = SliceReader(handle)
        assert reader.n_users == tiny_model.n_users
        assert list(reader.catalog) == list(stream.catalog)
        ours_all, theirs_all = list(reader.chunks()), list(stream.chunks())
        assert len(ours_all) == len(theirs_all)
        for ours, theirs in zip(ours_all, theirs_all):
            assert (ours.index, ours.start_hour, ours.end_hour) == (
                theirs.index, theirs.start_hour, theirs.end_hour)
            assert ours.start_times == theirs.start_times
            assert ours.user_ids == theirs.user_ids
            assert ours.program_ids == theirs.program_ids
            assert ours.durations == theirs.durations

    def test_materialize_equals_the_stream(self, tiny_model, tmp_path):
        stream = open_trace_stream(tiny_model)
        with SliceReader(_write(stream, str(tmp_path))) as reader:
            trace = reader.materialize()
        assert trace.records == stream.materialize().records

    def test_discard_removes_the_file(self, tiny_model, tmp_path):
        stream = open_trace_stream(tiny_model)
        writer = SliceWriter(stream.catalog, stream.n_users,
                             directory=str(tmp_path))
        writer.discard()
        assert list(tmp_path.iterdir()) == []


class TestGuards:
    def test_truncated_file_rejected(self, shared_pair, tmp_path):
        trace, handle = shared_pair
        clipped = tmp_path / "clipped.cols"
        clipped.write_bytes(
            open(handle.path, "rb").read()[:-16]
        )
        bad = dataclasses.replace(handle, path=str(clipped))
        with pytest.raises(TraceError):
            attach_trace(bad)

    def test_mismatched_header_rejected(self, shared_pair):
        _, handle = shared_pair
        lying = dataclasses.replace(handle, n_records=handle.n_records - 1)
        with pytest.raises(TraceError):
            attach_trace(lying)

    def test_missing_file_raises_oserror(self, tmp_path):
        gone = SliceHandle(path=str(tmp_path / "gone.cols"), n_users=1,
                           n_programs=1, n_chunks=1, n_records=1)
        with pytest.raises(OSError):
            attach_trace(gone)

    def test_unlink_idempotent(self, tmp_path):
        path = str(tmp_path / "x.cols")
        unlink_slice(path)
        unlink_slice(path)

    def test_truncated_file_is_rejected(self, tiny_model, tmp_path):
        handle = _write(open_trace_stream(tiny_model), str(tmp_path))
        with open(handle.path, "r+b") as fh:
            fh.truncate(handle.size - 8)
        with pytest.raises(TraceError, match="wrong size"):
            SliceReader(handle)

    def test_stale_handle_is_rejected(self, tiny_model, tmp_path):
        handle = _write(open_trace_stream(tiny_model), str(tmp_path))
        # Same byte size, different declared population.
        stale = dataclasses.replace(handle, n_users=handle.n_users + 1)
        with pytest.raises(TraceError, match="header"):
            SliceReader(stale)


class TestOneFormat:
    def test_published_trace_is_a_one_shard_slice(self):
        # A published sweep trace and the split of a one-shard
        # materialized run of the same workload are the same file.
        from repro.core.config import SimulationConfig
        from repro.core.parallel import ShardSpec, SimulationTask
        from repro.core.shard import split_shard_slices
        from repro.trace.workload import Workload, cached_workload_trace

        workload = Workload(model=PowerInfoModel(n_users=250, n_programs=40,
                                                 days=2.0, seed=31))
        task = SimulationTask(
            workload=workload, config=SimulationConfig(neighborhood_size=50),
            shard=ShardSpec(n_shards=1, index=0),
        )
        published = publish_trace(cached_workload_trace(workload))
        (split,) = split_shard_slices(task)
        try:
            assert dataclasses.replace(split, path=published.path) == published
            with open(published.path, "rb") as ours, \
                    open(split.path, "rb") as theirs:
                assert ours.read() == theirs.read()
        finally:
            unlink_slice(published.path)
            unlink_slice(split.path)
