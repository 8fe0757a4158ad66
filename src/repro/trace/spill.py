"""Per-shard slice files: one shard's rows of a trace, chunk by chunk.

A sharded metro replay (:mod:`repro.core.shard`) generates its trace
once, in the parent, and splits every hour-chunk by shard.  Each shard's
rows go to that shard's own slice file, which its task drains chunk by
chunk -- so no task regenerates or filters the whole metro.  This module
owns the file format: :class:`SliceWriter` appends chunks, and
:class:`SliceReader` reads them back as
:class:`~repro.trace.streaming.TraceChunk` s.

Layout (version 1; little-endian headers, native-order columns -- like
:mod:`repro.trace.share`, a slice lives for one run on one host)::

    header   magic ``REPROSL1`` + uint64 n_users, n_programs
    catalog  length_seconds f8[m] | introduced_at f8[m]
    chunks   per chunk: uint64 index, start_hour, end_hour, n_rows, then
             start_times f8[n] | user_ids q[n] | program_ids q[n] |
             durations f8[n]

The chunk and row counts travel in the :class:`SliceHandle`, so a
truncated or stale file fails its size check instead of replaying short.
Writers take any buffer of 8-byte items (``array.array`` or a numpy
slice); the reader uses only ``array`` and ``struct``.
"""

from __future__ import annotations

import os
import struct
import tempfile
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import TraceError
from repro.trace.records import Catalog, Trace
from repro.trace.share import catalog_from_columns, write_catalog
from repro.trace.streaming import TraceChunk

_MAGIC = b"REPROSL1"
_HEADER = struct.Struct("<8sQQ")
_CHUNK = struct.Struct("<QQQQ")
#: Column type codes in file order (the ``TraceChunk`` argument order).
_COLUMNS = "dqqd"


@dataclass(frozen=True)
class SliceHandle:
    """A finished slice file as a tiny picklable value."""

    path: str
    n_users: int
    n_programs: int
    n_chunks: int
    n_records: int

    @property
    def size(self) -> int:
        """The byte size the file must have."""
        return (_HEADER.size + 16 * self.n_programs
                + _CHUNK.size * self.n_chunks + 32 * self.n_records)


class SliceWriter:
    """Append one shard's chunks to a new temp file.

    The file is created at construction (``repro-slice-*`` in
    ``directory``, default the system temp dir); :meth:`close` returns
    its handle and :meth:`discard` deletes it.  ``OSError`` from any
    write propagates -- the caller decides what a failed spill means.
    """

    def __init__(self, catalog: Catalog, n_users: int,
                 directory: Optional[str] = None) -> None:
        fd, self.path = tempfile.mkstemp(prefix="repro-slice-",
                                         suffix=".cols", dir=directory)
        self._out = os.fdopen(fd, "wb")
        self._n_users = n_users
        self._n_programs = len(catalog)
        self._n_chunks = 0
        self._n_records = 0
        self._out.write(_HEADER.pack(_MAGIC, n_users, len(catalog)))
        write_catalog(self._out, catalog)

    def write_chunk(self, index: int, start_hour: int, end_hour: int,
                    start_times, user_ids, program_ids, durations) -> None:
        """Append one non-empty chunk of four equal-length columns."""
        n = len(start_times)
        self._out.write(_CHUNK.pack(index, start_hour, end_hour, n))
        for column in (start_times, user_ids, program_ids, durations):
            self._out.write(column)
        self._n_chunks += 1
        self._n_records += n

    def close(self) -> SliceHandle:
        """Flush the file and return its handle."""
        self._out.close()
        return SliceHandle(self.path, self._n_users, self._n_programs,
                           self._n_chunks, self._n_records)

    def discard(self) -> None:
        """Close and delete the file (idempotent)."""
        self._out.close()
        unlink_slice(self.path)


class SliceReader:
    """Read a slice file back: catalog up front, chunks on demand.

    Opening checks the size against the handle and the header against
    its counts, raising :class:`~repro.errors.TraceError` on a mismatch.
    Use as a context manager, or drain :meth:`chunks` to the end.
    """

    def __init__(self, handle: SliceHandle) -> None:
        self._handle = handle
        self._file = open(handle.path, "rb")
        try:
            if os.fstat(self._file.fileno()).st_size != handle.size:
                raise TraceError(
                    f"slice file {handle.path} has the wrong size for "
                    f"{handle.n_chunks} chunks / {handle.n_records} records"
                )
            magic, n_users, n_programs = _HEADER.unpack(
                self._file.read(_HEADER.size))
            if (magic, n_users, n_programs) != (
                    _MAGIC, handle.n_users, handle.n_programs):
                raise TraceError(
                    f"slice file {handle.path} header does not match its "
                    f"handle (corrupt or stale file)"
                )
            lengths = self._column("d", n_programs)
            introduced = self._column("d", n_programs)
            self.catalog = catalog_from_columns(lengths, introduced)
            self.n_users = n_users
        except BaseException:
            self._file.close()
            raise

    def _column(self, code: str, count: int) -> List:
        column = array(code)
        column.fromfile(self._file, count)
        return column.tolist()

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield every chunk in file order, then close the file."""
        with self._file:
            for _ in range(self._handle.n_chunks):
                index, h0, h1, n = _CHUNK.unpack(self._file.read(_CHUNK.size))
                yield TraceChunk(index, h0, h1,
                                 *(self._column(code, n) for code in _COLUMNS))

    def materialize(self) -> Trace:
        """Concatenate every chunk into one ``Trace`` (global ids)."""
        columns: List[List] = [[], [], [], []]
        for chunk in self.chunks():
            for column, part in zip(columns, (chunk.start_times,
                                              chunk.user_ids,
                                              chunk.program_ids,
                                              chunk.durations)):
                column.extend(part)
        return Trace.from_columns(*columns, self.catalog, self.n_users)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "SliceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def unlink_slice(path: str) -> None:
    """Delete a slice file (idempotent)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
