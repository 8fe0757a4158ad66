"""Trace data model: programs, catalogs, session records and traces.

The PowerInfo trace the paper uses records, for every viewing session,
*which user* watched *which program* for *how long* and when the session
started (paper §V-A: "Each of these records identifies the user, the
program, and the length of the session").  This module defines the exact
same schema plus the program catalog metadata (length, introduction time)
that the paper derives from access patterns, and the column slab
(`TraceChunk`) in which replays and slice files carry sessions.  Columns
are the one per-session representation every replay reads;
`SessionRecord` objects are a lazy view for analysis callers.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from collections import Counter
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


def check_columns(
    start_times: Sequence[float],
    user_ids: Sequence[int],
    program_ids: Sequence[int],
    durations: Sequence[float],
) -> None:
    """Refuse session columns any row of which :class:`SessionRecord` refuses.

    The four ``SessionRecord.__post_init__`` conditions (start, user and
    program non-negative, duration positive), checked with one C-level
    ``min()`` per column instead of one record per session.

    Raises
    ------
    TraceError
        Naming the column's lowest offending value.
    """
    if not len(start_times):
        return
    for name, column in (("start_time", start_times), ("user_id", user_ids),
                         ("program_id", program_ids)):
        low = _lowest(column)
        if low < 0:
            raise TraceError(f"{name} must be non-negative, got {low}")
    low = _lowest(durations)
    if low <= 0:
        row = next(i for i, d in enumerate(durations) if d == low)
        raise TraceError(
            f"duration must be positive, got {low} "
            f"(user {user_ids[row]}, program {program_ids[row]})"
        )


def check_references(
    user_ids: Sequence[int],
    program_ids: Sequence[int],
    durations: Sequence[float],
    n_users: int,
    duration_limits: Sequence[float],
) -> None:
    """Refuse session columns that reference what the trace lacks.

    Every user id must be below ``n_users``, every program id below
    ``len(duration_limits)`` (the catalog size), and every duration at
    most its program's limit: length + 1 s, the list constructor's
    rule.  Each is one C-level scan over the columns.  Run it after
    :func:`check_columns`, which rules out negative ids.

    Raises
    ------
    TraceError
        Naming the first offending reference.
    """
    if not len(user_ids):
        return
    _check_ids(user_ids, program_ids, n_users, len(duration_limits))
    if any(map(operator.gt, durations,
               map(duration_limits.__getitem__, program_ids))):
        row = next(i for i, (duration, program_id)
                   in enumerate(zip(durations, program_ids))
                   if duration > duration_limits[program_id])
        raise TraceError(
            f"session duration {durations[row]:.1f}s exceeds program "
            f"{program_ids[row]} length by more than 1 s "
            f"(user {user_ids[row]})"
        )


def _check_ids(user_ids: Sequence[int], program_ids: Sequence[int],
               n_users: int, n_programs: int) -> None:
    """Refuse a non-empty column pair naming a user or program out of range."""
    top = max(user_ids)
    if top >= n_users:
        raise TraceError(
            f"declared n_users={n_users} but a record references user {top}")
    top = max(program_ids)
    if top >= n_programs:
        raise TraceError(
            f"a record references program {top} but the catalog has "
            f"{n_programs} programs"
        )


def _lowest(column: Sequence[float]) -> float:
    """``min(column)``, NaN-proof: a leading NaN would win the C scan."""
    low = min(column)
    if low == low:
        return low
    return min((value for value in column if value == value), default=0.0)


class Trace:
    """A chronologically sorted sequence of sessions plus its catalog.

    The sessions live as four parallel columns (start, user, program,
    duration) -- what every replay reads and every slice file stores.
    :attr:`records` is a view for analysis callers, built on first use
    and memoized; the metadata (length, span, per-program counts) is
    answered from the columns.
    """

    def __init__(
        self,
        records: Iterable[SessionRecord],
        catalog: Catalog,
        n_users: Optional[int] = None,
    ) -> None:
        records = sorted(records)
        max_user = -1
        for record in records:
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
        self._catalog = catalog
        self._n_users = n_users
        self._columns = (
            [r.start_time for r in records],
            [r.user_id for r in records],
            [r.program_id for r in records],
            [r.duration_seconds for r in records],
        )
        # The caller built these records anyway: they seed the view.
        self._records: Optional[List[SessionRecord]] = records

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
        generator backend, the workload families and the slice-file
        attach used by sweep and shard workers: callers hand over four
        parallel columns (any sequence type) that are **already sorted
        by** ``(start_time, user_id, program_id)`` and **already
        catalog-consistent** (every duration within its program's
        length).  No record is built: each column is checked once
        (:func:`check_columns`, the ``SessionRecord`` field rules), and
        the O(n log n) sort and the per-record catalog lookups of the
        list constructor are skipped.

        Raises
        ------
        TraceError
            If a field rule or an aggregate invariant fails (negative
            field, unsorted starts, id out of range) -- the guard
            against attaching a corrupt buffer.
        """
        if not (len(start_times) == len(user_ids) == len(program_ids)
                == len(durations)):
            raise TraceError(
                f"from_columns needs equal-length columns, got "
                f"{len(start_times)}/{len(user_ids)}/{len(program_ids)}"
                f"/{len(durations)}"
            )
        # Copy with list(): a caller may hand in any sequence, or another
        # trace's own columns, and the trace must own its lists.
        columns = (list(start_times), list(user_ids), list(program_ids),
                   list(durations))
        check_columns(*columns)
        starts, users, programs, _ = columns
        if starts:
            # C-level pairwise scan: no sorted() copy of a column that
            # can be tens of millions of entries in a pool worker.
            if not all(map(operator.le, starts, islice(starts, 1, None))):
                raise TraceError("from_columns requires start-sorted columns")
            _check_ids(users, programs, n_users, len(catalog))
        trace = cls.__new__(cls)
        trace._catalog = catalog
        trace._n_users = n_users
        trace._columns = columns
        trace._records = None
        return trace

    @classmethod
    def from_chunks(cls, chunks: Iterable["TraceChunk"], catalog: Catalog,
                    n_users: int) -> "Trace":
        """Concatenate ascending chunks into one trace (``from_columns``)."""
        columns: Tuple[list, list, list, list] = ([], [], [], [])
        for chunk in chunks:
            for column, part in zip(columns, (
                    chunk.start_times, chunk.user_ids, chunk.program_ids,
                    chunk.durations)):
                column.extend(part)
        return cls.from_columns(*columns, catalog, n_users)

    # ------------------------------------------------------------------
    # Container protocol (the record view)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[SessionRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> SessionRecord:
        return self.records[index]

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
        """Session start times in record order (the first column).

        A read-only view of the trace's own column (do **not** mutate).
        """
        return self._columns[0]

    @property
    def records(self) -> Sequence[SessionRecord]:
        """All session records in chronological order.

        A view for analysis callers: built from the columns on first
        access and memoized (a trace from the list constructor already
        holds it).  No replay reads it.  Treat it as immutable.
        """
        records = self._records
        if records is None:
            records = self._records = list(map(SessionRecord,
                                               *self._columns))
        return records

    def columns(self) -> Tuple[List[float], List[int], List[int], List[float]]:
        """Parallel ``(start_times, user_ids, program_ids, durations)`` lists.

        The trace's sessions as four read-only columns in record order
        -- the payload of every replay, slice file and workload
        transform.  Treat the lists as immutable views.
        """
        return self._columns

    @property
    def start_time(self) -> float:
        """Start time of the earliest session (0.0 for an empty trace)."""
        starts = self._columns[0]
        return starts[0] if starts else 0.0

    @property
    def end_time(self) -> float:
        """Latest session *end* across the trace (0.0 for an empty trace)."""
        starts, _, _, durations = self._columns
        return max(map(operator.add, starts, durations), default=0.0)

    @property
    def span_days(self) -> float:
        """Days between trace start and the last session end."""
        if not len(self):
            return 0.0
        return (self.end_time - self.start_time) / units.SECONDS_PER_DAY

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _rows_between(self, start: float, end: float) -> Tuple[int, int]:
        starts = self._columns[0]
        return (bisect.bisect_left(starts, start),
                bisect.bisect_left(starts, end))

    def records_between(self, start: float, end: float) -> List[SessionRecord]:
        """Records whose *start* time falls in ``[start, end)``."""
        lo, hi = self._rows_between(start, end)
        return list(map(SessionRecord,
                        *(column[lo:hi] for column in self._columns)))

    def sessions_per_program(self) -> Dict[int, int]:
        """Total session count per program id (absent ids omitted)."""
        return dict(Counter(self._columns[2]))

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
        rate = units.STREAM_RATE_BPS
        return sum(duration * rate for duration in self._columns[3])

    def restricted_to_window(self, start: float, end: float) -> "Trace":
        """A new trace containing only sessions starting in ``[start, end)``."""
        lo, hi = self._rows_between(start, end)
        return Trace.from_columns(
            *(column[lo:hi] for column in self._columns),
            self._catalog, self._n_users)


def _sorted_trace(starts: Sequence[float], users: Sequence[int],
                  programs: Sequence[int], durations: Sequence[float],
                  catalog: Catalog, n_users: int) -> Trace:
    """``Trace.from_columns`` of rows a transform may have reordered.

    Strictly ascending starts are already in ``(start, user, program)``
    order.  Otherwise the rows are stably sorted by that key -- the
    order the record constructor's ``sorted()`` gives, ties on the
    whole key keeping their row order.
    """
    if not all(map(operator.lt, starts, islice(starts, 1, None))):
        order = sorted(range(len(starts)),
                       key=lambda i: (starts[i], users[i], programs[i]))
        starts = [starts[i] for i in order]
        users = [users[i] for i in order]
        programs = [programs[i] for i in order]
        durations = [durations[i] for i in order]
    return Trace.from_columns(starts, users, programs, durations, catalog,
                              n_users)


class TraceChunk:
    """One contiguous span of simulated hours' worth of sessions.

    Columns are plain python lists (the same values ``Trace.from_columns``
    would ingest), already sorted by ``(start_time, user_id,
    program_id)``.  They are the replay payload: both engines read a
    chunk's sessions straight from its columns, and no record is built
    from them.  Not a dataclass and no ``__slots__`` on purpose: the
    bounded-memory test holds weakrefs to yielded chunks.
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
