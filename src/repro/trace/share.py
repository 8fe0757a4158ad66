"""Zero-copy trace hand-off between a sweep parent and its workers.

A PowerInfo-scale :class:`~repro.trace.records.Trace` is tens of
millions of :class:`~repro.trace.records.SessionRecord` objects --
pickling one per pool task would dwarf the simulation, which is why
:mod:`repro.core.parallel` historically shipped the few-field
:class:`~repro.trace.workload.Workload` and had every worker
*regenerate* the trace.  Regeneration is deterministic but not free:
each worker pays the full generator (or transform) cost per distinct
workload it touches.

This module removes that cost.  The parent serializes a generated trace
once into flat typed columns inside an unlinked-on-cleanup file
(``publish_trace``), and each worker maps the file and rebuilds the
trace through the trusted ``Trace.from_columns`` path
(``attach_trace``).  The payload crossing the process boundary is a
:class:`TraceShareHandle` -- a frozen few-field dataclass -- so the
scheme is safe under both ``fork`` and ``spawn`` start methods, and the
mapped pages are shared by every worker on the host through the page
cache (the "shared memory" is the OS's, with none of the
``multiprocessing.shared_memory`` resource-tracker lifetime hazards).

Layout (version 1; little-endian header, native-order columns -- the
file's lifetime is one sweep on one host, never a cross-machine
artifact)::

    header   magic ``REPROTR1`` + uint64 n_records, n_programs, n_users
    records  start_times f8[n] | durations f8[n] | users q[n] | programs q[n]
    catalog  length_seconds f8[m] | introduced_at f8[m]

Readers slice the single mapped buffer with ``memoryview.cast``, so no
column is copied until record objects are built.  Everything here is
pure stdlib (``mmap`` + ``struct`` + ``array``); numpy is never
required, keeping the pure-python CI leg and the container image happy.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence

from repro.errors import TraceError
from repro.trace.records import Catalog, Program, Trace

#: File magic: 8 bytes identifying a version-1 trace share.
_MAGIC = b"REPROTR1"
_HEADER = struct.Struct("<8sQQQ")

#: ``REPRO_TRACE_SHARE`` gates the whole mechanism: ``auto`` (default)
#: publishes whenever a sweep actually fans out to multiple processes;
#: ``off`` forces the legacy regenerate-in-worker path.
_SHARE_MODES = ("auto", "off")


def share_enabled() -> bool:
    """Whether sweep parents should publish traces for their workers."""
    mode = os.environ.get("REPRO_TRACE_SHARE", "auto")
    if mode not in _SHARE_MODES:
        raise TraceError(
            f"REPRO_TRACE_SHARE must be one of {_SHARE_MODES}, got {mode!r}"
        )
    return mode == "auto"


@dataclass(frozen=True)
class TraceShareHandle:
    """A published trace as a tiny picklable value.

    Workers use the counts to slice the mapped file without trusting
    its header, and the handle doubles as the worker-side memo key, so
    two tasks sharing a workload attach (and materialize) once per
    worker process.
    """

    path: str
    n_records: int
    n_programs: int
    n_users: int


def write_catalog(out: BinaryIO, catalog: Catalog) -> None:
    """Write the catalog section: lengths, then introduction times."""
    array("d", (p.length_seconds for p in catalog)).tofile(out)
    array("d", (p.introduced_at for p in catalog)).tofile(out)


def catalog_from_columns(lengths: Sequence[float],
                         introduced: Sequence[float]) -> Catalog:
    """Rebuild a catalog from its two columns (dense ids)."""
    return Catalog([
        Program(program_id=i, length_seconds=length, introduced_at=at)
        for i, (length, at) in enumerate(zip(lengths, introduced))
    ])


def publish_trace(trace: Trace, directory: Optional[str] = None) -> TraceShareHandle:
    """Serialize ``trace`` into a mappable column file; return its handle.

    The file lands in ``directory`` (default: the system temp dir) and
    stays until :func:`unlink_trace` -- callers own the lifetime, which
    must cover every worker attach.  Raises ``OSError`` if the file
    cannot be written (no space, unwritable dir); callers fall back to
    the regenerate path.
    """
    records = trace.records
    n = len(records)
    catalog = trace.catalog
    fd, path = tempfile.mkstemp(prefix="repro-trace-", suffix=".cols",
                                dir=directory)
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(_HEADER.pack(_MAGIC, n, len(catalog), trace.n_users))
            # Generator feeds: no n-element intermediate list per column
            # in the very prelude this module exists to keep cheap.
            array("d", trace.start_times).tofile(out)
            array("d", (r.duration_seconds for r in records)).tofile(out)
            array("q", (r.user_id for r in records)).tofile(out)
            array("q", (r.program_id for r in records)).tofile(out)
            write_catalog(out, catalog)
    except BaseException:
        os.unlink(path)
        raise
    return TraceShareHandle(path=path, n_records=n,
                            n_programs=len(catalog), n_users=trace.n_users)


class SharedColumns:
    """Typed views over a mapped trace share, without record objects.

    :func:`attach_trace` builds its ``Trace`` straight off these views.
    Use as a context manager; every view (and the mapping behind it)
    dies at ``__exit__``, so copy whatever survives the block.
    """

    def __init__(self, handle: TraceShareHandle) -> None:
        n, m = handle.n_records, handle.n_programs
        expected = _HEADER.size + 8 * (4 * n + 2 * m)
        self._views: list = []
        self._mapped: Optional[mmap.mmap] = None
        with open(handle.path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size != expected:
                raise TraceError(
                    f"trace share {handle.path} has the wrong size for "
                    f"{n} records / {m} programs"
                )
            # length=0 maps the whole file; an empty trace share is
            # smaller than a page but mmap handles that fine.
            self._mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            magic, fn, fm, fusers = _HEADER.unpack_from(self._mapped, 0)
            if magic != _MAGIC or (fn, fm, fusers) != (n, m, handle.n_users):
                raise TraceError(
                    f"trace share {handle.path} header does not match its "
                    f"handle (corrupt or stale file)"
                )
            view = memoryview(self._mapped)
            self._views.append(view)
            offset = _HEADER.size
            sections = []
            for code, count in (("d", n), ("d", n), ("q", n), ("q", n),
                                ("d", m), ("d", m)):
                size = 8 * count
                section = view[offset:offset + size].cast(code)
                self._views.append(section)
                sections.append(section)
                offset += size
            starts, durations, users, programs, lengths, introduced = sections
            self.start_times = starts
            self.durations = durations
            self.user_ids = users
            self.program_ids = programs
            self.catalog = catalog_from_columns(lengths, introduced)
            self.n_users = handle.n_users
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Release every view and the mapping (idempotent)."""
        for section in reversed(self._views):
            section.release()
        self._views.clear()
        if self._mapped is not None:
            self._mapped.close()
            self._mapped = None

    def __enter__(self) -> "SharedColumns":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_columns(handle: TraceShareHandle) -> SharedColumns:
    """Map ``handle``'s column file into typed views (no records built)."""
    return SharedColumns(handle)


def attach_trace(handle: TraceShareHandle) -> Trace:
    """Rebuild the published trace by mapping ``handle``'s column file.

    The file is mapped read-only and sliced into typed memoryviews;
    record objects are built straight off those views (the only copy in
    the whole hand-off).  Corrupt or truncated files raise
    :class:`~repro.errors.TraceError` -- and ``Trace.from_columns``
    re-checks the ordering/id invariants -- rather than feeding a
    damaged trace to a simulation.
    """
    with attach_columns(handle) as cols:
        return Trace.from_columns(cols.start_times, cols.user_ids,
                                  cols.program_ids, cols.durations,
                                  cols.catalog, cols.n_users)


def unlink_trace(handle: TraceShareHandle) -> None:
    """Delete a published column file (idempotent).

    Safe while workers still hold mappings: on POSIX the pages live
    until the last map goes away.
    """
    try:
        os.unlink(handle.path)
    except FileNotFoundError:
        pass
