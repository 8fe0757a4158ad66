"""Trace data model: programs, catalogs, session records and traces.

The PowerInfo trace the paper uses records, for every viewing session,
*which user* watched *which program* for *how long* and when the session
started (paper §V-A: "Each of these records identifies the user, the
program, and the length of the session").  This module defines the exact
same schema plus the program catalog metadata (length, introduction time)
that the paper derives from access patterns, and the column slab
(`TraceChunk`) in which streamed replays and slice files carry records.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import units
from repro.errors import TraceError


@dataclass(frozen=True, slots=True)
class Program:
    """A catalog item.

    Attributes
    ----------
    program_id:
        Dense integer identifier, unique within a catalog.
    length_seconds:
        Full playback length.  The paper infers these from the jump in
        each program's session-length ECDF (§V-A, Fig 6).
    introduced_at:
        Time (seconds, trace clock) the program entered the catalog.
        Negative values mean the program pre-dates the trace window
        (back-catalog content).
    """

    program_id: int
    length_seconds: float
    introduced_at: float = 0.0

    def __post_init__(self) -> None:
        if self.program_id < 0:
            raise TraceError(f"program_id must be non-negative, got {self.program_id}")
        if self.length_seconds <= 0:
            raise TraceError(
                f"program {self.program_id}: length must be positive, "
                f"got {self.length_seconds}"
            )

    @property
    def size_bytes(self) -> float:
        """Storage footprint at the paper's 8.06 Mb/s encoding."""
        return units.program_size_bytes(self.length_seconds)

    @property
    def num_segments(self) -> int:
        """Number of 5-minute segments the program spans."""
        return units.segments_in_program(self.length_seconds)


class Catalog:
    """An immutable collection of :class:`Program` indexed by id.

    Program ids must be dense (``0..n-1``) so that popularity arrays can
    be plain lists; the synthetic generator and the scaling transforms
    both guarantee this, and it makes :attr:`segment_counts` and
    :attr:`lengths` per-id tables.
    """

    def __init__(self, programs: Sequence[Program]) -> None:
        self._programs: List[Program] = list(programs)
        for index, program in enumerate(self._programs):
            if program.program_id != index:
                raise TraceError(
                    f"catalog requires dense ids: position {index} holds "
                    f"program_id {program.program_id}"
                )
        self._segment_counts: Optional[List[int]] = None
        self._lengths: Optional[List[float]] = None

    def __len__(self) -> int:
        return len(self._programs)

    def __iter__(self) -> Iterator[Program]:
        return iter(self._programs)

    def __getitem__(self, program_id: int) -> Program:
        try:
            return self._programs[program_id]
        except IndexError:
            raise TraceError(
                f"unknown program_id {program_id} (catalog has {len(self)} programs)"
            ) from None

    def __contains__(self, program_id: int) -> bool:
        return 0 <= program_id < len(self._programs)

    @property
    def programs(self) -> Tuple[Program, ...]:
        """All programs in id order (defensive tuple copy)."""
        return tuple(self._programs)

    @property
    def segment_counts(self) -> List[int]:
        """``Program.num_segments`` by program id, built on first use.

        Read-only: every system and index server on the catalog shares it.
        """
        if self._segment_counts is None:
            self._segment_counts = [p.num_segments for p in self._programs]
        return self._segment_counts

    @property
    def lengths(self) -> List[float]:
        """``Program.length_seconds`` by program id (read-only; do not mutate)."""
        if self._lengths is None:
            self._lengths = [p.length_seconds for p in self._programs]
        return self._lengths

    def total_size_bytes(self) -> float:
        """Combined storage footprint of the whole catalog."""
        return sum(p.size_bytes for p in self._programs)


@dataclass(frozen=True, order=True, slots=True)
class SessionRecord:
    """One viewing session: user, program, start time and watched length.

    Ordering is by ``(start_time, user_id, program_id)`` so sorted record
    lists are deterministic.
    """

    start_time: float
    user_id: int
    program_id: int
    duration_seconds: float = field(compare=False)

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise TraceError(f"start_time must be non-negative, got {self.start_time}")
        if self.user_id < 0:
            raise TraceError(f"user_id must be non-negative, got {self.user_id}")
        if self.program_id < 0:
            raise TraceError(f"program_id must be non-negative, got {self.program_id}")
        if self.duration_seconds <= 0:
            raise TraceError(
                f"duration must be positive, got {self.duration_seconds} "
                f"(user {self.user_id}, program {self.program_id})"
            )

    @property
    def end_time(self) -> float:
        """Time the session terminates."""
        return self.start_time + self.duration_seconds

    @property
    def bits_delivered(self) -> float:
        """Total bits streamed to the viewer over the session."""
        return self.duration_seconds * units.STREAM_RATE_BPS


class Trace:
    """A chronologically sorted sequence of sessions plus its catalog.

    The trace owns enough metadata (user count, time span) that consumers
    never need to rescan the records for basic facts.
    """

    def __init__(
        self,
        records: Iterable[SessionRecord],
        catalog: Catalog,
        n_users: Optional[int] = None,
    ) -> None:
        self._records: List[SessionRecord] = sorted(records)
        self._catalog = catalog
        max_user = -1
        for record in self._records:
            if record.program_id not in catalog:
                raise TraceError(
                    f"record references program {record.program_id} missing "
                    f"from the {len(catalog)}-program catalog"
                )
            if record.duration_seconds > catalog[record.program_id].length_seconds + 1.0:
                raise TraceError(
                    f"session duration {record.duration_seconds:.1f}s exceeds "
                    f"program {record.program_id} length "
                    f"{catalog[record.program_id].length_seconds:.1f}s"
                )
            if record.user_id > max_user:
                max_user = record.user_id
        if n_users is None:
            n_users = max_user + 1
        elif max_user >= n_users:
            raise TraceError(
                f"declared n_users={n_users} but a record references user {max_user}"
            )
        self._n_users = n_users
        self._start_times = [r.start_time for r in self._records]
        self._columns: Optional[Tuple[List[float], List[int], List[int],
                                      List[float]]] = None

    # ------------------------------------------------------------------
    # Columnar construction (trusted fast path)
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        start_times: Sequence[float],
        user_ids: Sequence[int],
        program_ids: Sequence[int],
        durations: Sequence[float],
        catalog: Catalog,
        n_users: int,
    ) -> "Trace":
        """Build a trace from parallel columns already in sorted order.

        This is the trusted ingestion path shared by the vectorized
        generator backend and the slice-file attach used by sweep and
        shard workers: callers hand over four parallel columns (any
        sequence type) that are **already sorted by**
        ``(start_time, user_id, program_id)`` and
        **already catalog-consistent** (every program id resolvable,
        every duration within its program's length).  Only cheap
        aggregate checks run here -- per-record validation still happens
        in :class:`SessionRecord`, but the O(n log n) sort and the
        per-record catalog lookups of the list constructor are skipped.

        Raises
        ------
        TraceError
            If the aggregate invariants fail (unsorted starts, id out of
            range) -- the guard against attaching a corrupt buffer.
        """
        if not (len(start_times) == len(user_ids) == len(program_ids)
                == len(durations)):
            raise TraceError(
                f"from_columns needs equal-length columns, got "
                f"{len(start_times)}/{len(user_ids)}/{len(program_ids)}"
                f"/{len(durations)}"
            )
        records = list(map(SessionRecord, start_times, user_ids,
                           program_ids, durations))
        # Each SessionRecord re-validated its own fields above; the
        # aggregate checks below cover the cross-record/cross-catalog
        # invariants the trusted path still owes its callers.
        starts = list(start_times)
        if starts:
            # C-level pairwise scan: no sorted() copy of a column that
            # can be tens of millions of entries in a pool worker.
            if not all(map(operator.le, starts, islice(starts, 1, None))):
                raise TraceError("from_columns requires start-sorted columns")
            if max(user_ids) >= n_users:
                raise TraceError(
                    f"declared n_users={n_users} but a record references "
                    f"user {max(user_ids)}"
                )
            if max(program_ids) >= len(catalog):
                raise TraceError(
                    f"a record references program {max(program_ids)} but the "
                    f"catalog has {len(catalog)} programs"
                )
        trace = cls.__new__(cls)
        trace._records = records
        trace._catalog = catalog
        trace._n_users = n_users
        trace._start_times = starts
        # Seed the column cache from the caller's columns.  Materialize
        # with list(): a caller may hand in any sequence, or another
        # trace's own columns, and the cache must own its lists.
        trace._columns = (starts, list(user_ids), list(program_ids),
                          list(durations))
        return trace

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SessionRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> SessionRecord:
        return self._records[index]

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The program catalog the records reference."""
        return self._catalog

    @property
    def n_users(self) -> int:
        """Number of distinct user slots (ids are ``0..n_users-1``)."""
        return self._n_users

    @property
    def start_times(self) -> Sequence[float]:
        """Session start times in record order.

        A read-only view of the trace's own column (do **not** mutate):
        the engine's bulk session-start preload and the slice-file
        writer walk hundreds of thousands of starts, so handing out
        a defensive copy per access would dominate their cost.
        """
        return self._start_times

    @property
    def records(self) -> Sequence[SessionRecord]:
        """All session records in chronological order.

        Like :attr:`start_times`, this is a read-only view of the
        internal list, not a copy -- treat it as immutable.
        """
        return self._records

    def columns(self) -> Tuple[List[float], List[int], List[int], List[float]]:
        """Parallel ``(start_times, user_ids, program_ids, durations)`` lists.

        The trace's record stream as four read-only columns in record
        order -- the columnar engine's input.  Built lazily on first use
        and memoized (column-built traces arrive with the cache already
        seeded), so replaying one trace across a config sweep extracts
        the columns once.  Treat the lists as immutable views.
        """
        columns = self._columns
        if columns is None:
            records = self._records
            columns = self._columns = (
                self._start_times,
                [r.user_id for r in records],
                [r.program_id for r in records],
                [r.duration_seconds for r in records],
            )
        return columns

    @property
    def start_time(self) -> float:
        """Start time of the earliest session (0.0 for an empty trace)."""
        return self._records[0].start_time if self._records else 0.0

    @property
    def end_time(self) -> float:
        """Latest session *end* across the trace (0.0 for an empty trace)."""
        return max((r.end_time for r in self._records), default=0.0)

    @property
    def span_days(self) -> float:
        """Days between trace start and the last session end."""
        if not self._records:
            return 0.0
        return (self.end_time - self.start_time) / units.SECONDS_PER_DAY

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def records_between(self, start: float, end: float) -> List[SessionRecord]:
        """Records whose *start* time falls in ``[start, end)``."""
        lo = bisect.bisect_left(self._start_times, start)
        hi = bisect.bisect_left(self._start_times, end)
        return self._records[lo:hi]

    def sessions_per_program(self) -> Dict[int, int]:
        """Total session count per program id (absent ids omitted)."""
        counts: Dict[int, int] = {}
        for record in self._records:
            counts[record.program_id] = counts.get(record.program_id, 0) + 1
        return counts

    def most_popular_program(self) -> int:
        """Program id with the most sessions.

        Raises
        ------
        TraceError
            If the trace is empty.
        """
        counts = self.sessions_per_program()
        if not counts:
            raise TraceError("cannot rank programs of an empty trace")
        return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def total_bits_delivered(self) -> float:
        """Sum of bits streamed across every session."""
        return sum(r.bits_delivered for r in self._records)

    def restricted_to_window(self, start: float, end: float) -> "Trace":
        """A new trace containing only sessions starting in ``[start, end)``."""
        return Trace(self.records_between(start, end), self._catalog, self._n_users)


class TraceChunk:
    """One contiguous span of simulated hours' worth of sessions.

    Columns are plain python lists (the same values ``Trace.from_columns``
    would ingest), already sorted by ``(start_time, user_id,
    program_id)``.  Not a dataclass and no ``__slots__`` on purpose:
    the bounded-memory test holds weakrefs to yielded chunks.
    """

    def __init__(
        self,
        index: int,
        start_hour: int,
        end_hour: int,
        start_times: List[float],
        user_ids: List[int],
        program_ids: List[int],
        durations: List[float],
    ) -> None:
        self.index = index
        self.start_hour = start_hour
        self.end_hour = end_hour
        self.start_times = start_times
        self.user_ids = user_ids
        self.program_ids = program_ids
        self.durations = durations

    @property
    def start_second(self) -> float:
        """Chunk window start (inclusive), in simulated seconds."""
        return self.start_hour * float(units.SECONDS_PER_HOUR)

    @property
    def end_second(self) -> float:
        """Chunk window end (exclusive), in simulated seconds."""
        return self.end_hour * float(units.SECONDS_PER_HOUR)

    def __len__(self) -> int:
        return len(self.start_times)

    def records(self) -> List[SessionRecord]:
        """Materialize this chunk's rows as ``SessionRecord`` objects.

        Built fresh on every call (no caching) so a replay driver that
        drops the returned list keeps peak memory at one chunk.
        """
        return list(map(SessionRecord, self.start_times, self.user_ids,
                        self.program_ids, self.durations))
