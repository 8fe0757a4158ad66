"""Slice files: the one on-disk format a trace crosses processes in.

A PowerInfo-scale :class:`~repro.trace.records.Trace` is tens of
millions of records, so no pool task ever pickles one.  A task carries
a :class:`SliceHandle` -- a frozen few-field dataclass, safe under both
``fork`` and ``spawn`` -- naming a file of flat typed columns, and
every hand-off writes and reads that file through this module:

* **shard slices** -- a sharded metro replay (:mod:`repro.core.shard`)
  generates its trace once, in the parent, and appends each shard's
  rows to that shard's own file, chunk by chunk (:class:`SliceWriter`);
  its task drains the chunks back (:class:`SliceReader`);
* **published traces** -- a sweep parent writes a trace several
  unsharded tasks share once, as a one-chunk slice file
  (:func:`publish_trace`), and each worker rebuilds it
  (:func:`attach_trace`) instead of regenerating it.

Layout (version 1; little-endian headers, native-order columns -- a
file lives for one run on one host, never a cross-machine artifact)::

    header   magic ``REPROSL1`` + uint64 n_users, n_programs
    catalog  length_seconds f8[m] | introduced_at f8[m]
    chunks   per chunk: uint64 index, start_hour, end_hour, n_rows, then
             start_times f8[n] | user_ids q[n] | program_ids q[n] |
             durations f8[n]

The chunk and row counts travel in the handle, so a truncated or stale
file fails its size check instead of replaying short.  Writers take any
buffer of 8-byte items (``array.array`` or a numpy slice); everything
else is pure stdlib (``struct`` + ``array``), so the pure-python CI leg
needs no numpy.
"""

from __future__ import annotations

import os
import struct
import tempfile
from array import array
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from repro.errors import TraceError
from repro.trace.records import (
    Catalog,
    Program,
    Trace,
    TraceChunk,
    check_columns,
    check_references,
)

_MAGIC = b"REPROSL1"
_HEADER = struct.Struct("<8sQQ")
_CHUNK = struct.Struct("<QQQQ")


@dataclass(frozen=True)
class SliceHandle:
    """A finished slice file as a tiny picklable value.

    A published trace's handle doubles as the worker-side memo key, so
    two tasks sharing a workload attach once per worker process.
    """

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
    """Append chunks of one trace (or one shard's rows) to a new file.

    The file is created at construction (``repro-slice-*`` in
    ``directory``, default the system temp dir); :meth:`close` returns
    its handle and :meth:`discard` deletes it.  ``OSError`` from any
    write propagates -- the caller decides what a failed write means.
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
        array("d", (p.length_seconds for p in catalog)).tofile(self._out)
        array("d", (p.introduced_at for p in catalog)).tofile(self._out)

    def write_chunk(self, index: int, start_hour: int, end_hour: int,
                    start_times: Any, user_ids: Any, program_ids: Any,
                    durations: Any) -> None:
        """Append one non-empty chunk of four equal-length column buffers."""
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
    its counts, raising :class:`~repro.errors.TraceError` on a mismatch
    (``OSError`` if the file is gone).  Use as a context manager, or
    drain :meth:`chunks` to the end.
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
            self.catalog = Catalog([
                Program(program_id=i, length_seconds=length, introduced_at=at)
                for i, (length, at) in enumerate(zip(lengths, introduced))
            ])
            self.n_users: int = n_users
            #: Per program: the longest session it may hold (length + 1 s).
            self._duration_limits = [length + 1.0 for length in lengths]
        except BaseException:
            self._file.close()
            raise

    def _column(self, code: str, count: int) -> List[Any]:
        column = array(code)
        column.fromfile(self._file, count)
        return column.tolist()

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield every chunk in file order, then close the file.

        Each chunk's columns pass :func:`~repro.trace.records.check_columns`
        and :func:`~repro.trace.records.check_references` (ids in range,
        durations within their programs) first, so a damaged slice
        raises :class:`~repro.errors.TraceError` on every engine before
        any of its sessions replays.
        """
        with self._file:
            for _ in range(self._handle.n_chunks):
                index, h0, h1, n = _CHUNK.unpack(self._file.read(_CHUNK.size))
                columns = (self._column("d", n), self._column("q", n),
                           self._column("q", n), self._column("d", n))
                check_columns(*columns)
                check_references(columns[1], columns[2], columns[3],
                                 self.n_users, self._duration_limits)
                yield TraceChunk(index, h0, h1, *columns)

    def materialize(self) -> Trace:
        """Concatenate every chunk into one ``Trace`` (global ids)."""
        return Trace.from_chunks(self.chunks(), self.catalog, self.n_users)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "SliceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def publish_trace(trace: Trace, directory: Optional[str] = None) -> SliceHandle:
    """Write ``trace`` as a one-chunk slice file; return its handle.

    The chunk is the one a one-shard split of the same materialized
    trace writes (index and window bounds 0), so the two files are
    byte-identical.  The caller owns the file (:func:`unlink_slice`),
    whose lifetime must cover every attach.  ``OSError`` (no space,
    unwritable dir) propagates; callers fall back to regenerating.
    """
    starts, users, programs, durations = trace.columns()
    writer = SliceWriter(trace.catalog, trace.n_users, directory)
    try:
        if starts:
            writer.write_chunk(0, 0, 0, array("d", starts), array("q", users),
                               array("q", programs), array("d", durations))
    except BaseException:
        writer.discard()
        raise
    return writer.close()


def attach_columns(handle: SliceHandle) -> SliceReader:
    """Open ``handle``'s slice file (catalog read, no records built)."""
    return SliceReader(handle)


def attach_trace(handle: SliceHandle) -> Trace:
    """Rebuild the trace in ``handle``'s slice file, every chunk in order.

    Corrupt or truncated files raise :class:`~repro.errors.TraceError`
    -- every chunk's field rules are checked as it is read, and
    ``Trace.from_columns`` re-checks the ordering and id invariants --
    rather than feeding a damaged trace to a simulation.  No session
    record is built.
    """
    with attach_columns(handle) as reader:
        return reader.materialize()


def unlink_slice(path: str) -> None:
    """Delete a slice file (idempotent).

    Safe while a reader still has it open: on POSIX the bytes live
    until the last descriptor goes away.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
