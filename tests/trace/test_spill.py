"""Slice files: a shard's chunks round-trip exactly, damage is caught."""

from __future__ import annotations

import dataclasses
from array import array

import pytest

from repro.errors import TraceError
from repro.trace.spill import SliceReader, SliceWriter
from repro.trace.streaming import open_trace_stream


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


class TestDamage:
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
