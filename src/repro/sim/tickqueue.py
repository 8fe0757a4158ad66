"""Tick-bucketed calendar queue for the on-grid event storm.

Trace replay schedules one delivery per 5-minute video segment, so the
overwhelming majority of events land ``SEGMENT_SECONDS`` apart.  This
module stores them as plain tuples in per-tick *buckets* one
``SEGMENT_SECONDS`` wide: scheduling is an O(1) list append, and each
bucket is sorted once (a single C-level ``list.sort`` over
mostly-ordered data) when the clock reaches it.

Two entry shapes share a bucket:

* ``(time, seq, callback, args)`` -- a session start from a slab (the
  same shape as a simulator heap entry);
* ``(time, seq, arc)`` -- one step of a :class:`SessionArc`.

``seq`` values come from the same monotonic counter as the
simulator's heap, so merging bucket entries with heap events by
``(time, seq)`` reproduces exactly the global FIFO-within-an-instant
order a single heap would give.  Sequence numbers are unique, so
sorting never compares the mismatched tails of the two tuple shapes.

Session-start slabs
-------------------

Trace replay carries a second storm: one session-*start* event per
trace session, registered chunk by chunk (a whole trace is one chunk)
before the clock reaches the chunk's window.
:meth:`TickBucketQueue.extend_sorted` stores a chunk's start-sorted
column as per-bucket **slabs** -- ``(lo, hi)`` slices into the caller's
own columns, found with one bisect per bucket -- and materializes a
slab into ``(time, seq, callback, args)`` entries, each ``args`` one
row of the argument columns, only when its bucket is activated.  The
columns are the payload: no per-session object exists before its
bucket activates.  Session ``i`` of the replay takes sequence number ``i``,
below every dynamic draw (the simulator parks those in a high band),
which orders the starts exactly as scheduling each session in column
order before anything else would: the resulting execution order is
bit-identical, and buckets past a run's horizon never pay for
materialization at all.

The columnar engine (:mod:`repro.sim.columnar`) leans on two facts
pinned here: start ``i`` holds sequence number ``i``,
and an arc continuation deposited at ``time + SEGMENT_SECONDS`` always
lands in a strictly later bucket than its parent -- so the whole
bucket-by-bucket firing order can be reproduced without running the
queue at all.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from itertools import islice, repeat
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.units import SEGMENT_SECONDS


class SessionArc:
    """A self-perpetuating run of callbacks one tick apart.

    A session's segment flow is fully determined at session start: one
    delivery every ``SEGMENT_SECONDS`` until the viewer walks away.
    Registering the whole arc once replaces the per-segment
    schedule-one-event chain; each step costs a single tuple append.

    The engine calls ``fn(now, index, *args)`` per step; the callback
    returns ``True`` to continue (the next step is deposited one tick
    later) or ``False`` to end the arc.  ``index`` counts fired steps
    from 0.
    """

    __slots__ = ("fn", "args", "index")

    def __init__(self, fn: Callable[..., bool], args: Tuple[Any, ...]):
        self.fn = fn
        self.args = args
        self.index = 0


class TickBucketQueue:
    """Calendar queue of ``SEGMENT_SECONDS``-wide buckets.

    The queue does not own a clock; :class:`~repro.sim.engine.Simulator`
    drives it and interleaves its entries with its heap by
    ``(time, seq)``.  ``counter`` must be the same sequence source the
    heap uses -- shared numbering is what makes the merge a total order.
    """

    __slots__ = ("_counter", "_buckets", "_tick_heap",
                 "_front", "_front_pos", "_front_tick", "_slabs")

    def __init__(self, counter: Iterator[int]) -> None:
        self._counter = counter
        self._buckets: dict[int, List[tuple]] = {}
        self._tick_heap: List[int] = []
        #: Sorted entries of the bucket currently being drained.
        self._front: Optional[List[tuple]] = None
        self._front_pos = 0
        #: Tick index of ``_front`` (-1 before any bucket is activated).
        self._front_tick = -1
        #: tick -> (lo, hi, (times, columns, callback, base_seq)):
        #: a slice of a chunk's start column plus its backing source.
        #: The session at slice index ``i`` carries sequence number
        #: ``base_seq + i`` (a running chunk offset).  Per-slab sources
        #: let a chunk's columns be released as soon as its last bucket
        #: drains -- the whole point of streaming replay.
        self._slabs: dict[int, Tuple[int, int, tuple]] = {}

    @property
    def fresh(self) -> bool:
        """Whether nothing was ever deposited into or drained from the queue."""
        return not (self._buckets or self._tick_heap
                    or self._front is not None or self._front_tick != -1)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def accepts(self, time: float) -> bool:
        """Whether ``time`` falls in a bucket not yet activated.

        Entries may only join buckets strictly later than the one being
        drained, so ordering never depends on a bucket the walk already
        sorted.
        """
        return int(time // SEGMENT_SECONDS) > self._front_tick

    def start_arc(self, time: float, fn: Callable[..., bool],
                  args: Tuple[Any, ...]) -> SessionArc:
        """Register an arc whose first step fires at ``time``."""
        arc = SessionArc(fn, args)
        tick = int(time // SEGMENT_SECONDS)
        entry = (time, next(self._counter), arc)
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [entry]
            heapq.heappush(self._tick_heap, tick)
        else:
            bucket.append(entry)
        return arc

    def extend_sorted(self, times: Sequence[float],
                      columns: Tuple[Sequence[Any], ...],
                      callback: Callable[..., None], base_seq: int) -> int:
        """Register ``callback(*row)`` firings from sorted columns.

        ``columns`` are the argument columns, parallel to ``times``:
        entry ``i`` fires ``callback(columns[0][i], columns[1][i],
        ...)``.  The columns become per-tick slabs with one bisect per
        distinct tick; no per-entry tuple, argument row, dict probe or
        counter draw happens until a bucket is activated.  Entry ``i``
        takes sequence number ``base_seq + i``: a replay threads a
        running session index through its chunks, so every session
        gets the same sequence number however the trace is chunked.

        ``times`` must be ascending (verified with one C-level pairwise
        scan -- a mis-ordered column would mis-bucket silently) and
        must land strictly past the bucket currently being drained (the
        chunk protocol: the driver runs the clock to just before a
        chunk's window start before extending, and hour-aligned windows
        are tick-aligned because the 3600 s hour is a multiple of the
        300 s tick).  Ticks that already hold arc steps (continuations
        scheduled into the new chunk's window) are merged, not
        overwritten.
        """
        n = len(times)
        if not columns or any(len(column) != n for column in columns):
            raise ValueError(
                f"slab needs argument columns as long as its {n} times, "
                f"got lengths {[len(column) for column in columns]}"
            )
        if not all(map(operator.le, times, islice(times, 1, None))):
            raise ValueError("slab start times must be ascending")
        if n == 0:
            return 0
        if int(times[0] // SEGMENT_SECONDS) <= self._front_tick:
            raise ValueError(
                "slab starts at or before the bucket being drained; run "
                "the clock past the chunk boundary before extending"
            )
        src = (times, columns, callback, base_seq)
        lo = 0
        while lo < n:
            tick = int(times[lo] // SEGMENT_SECONDS)
            hi = bisect_left(times, (tick + 1) * SEGMENT_SECONDS, lo)
            if tick in self._slabs:
                raise ValueError(
                    f"slab collides with an existing slab at tick {tick}"
                )
            self._slabs[tick] = (lo, hi, src)
            # Create the bucket so later arc steps into a slab tick
            # append instead of double-pushing the tick onto the heap.
            if tick not in self._buckets:
                self._buckets[tick] = []
                heapq.heappush(self._tick_heap, tick)
            lo = hi
        return n

    # ------------------------------------------------------------------
    # Draining (driven by the simulator)
    # ------------------------------------------------------------------

    def _activate_next_bucket(self) -> None:
        """Advance ``_front`` to the earliest pending bucket, sorted.

        A start slab materializes here, its argument rows zipped from
        the slices of its columns: its entries come out time- and
        seq-ascending by construction, so a slab-only bucket skips the
        sort entirely and a mixed bucket merges the slab run into one
        adaptive ``list.sort``.
        """
        while self._tick_heap:
            tick = heapq.heappop(self._tick_heap)
            entries = self._buckets.pop(tick)
            slab = self._slabs.pop(tick, None)
            if slab is not None:
                lo, hi, (times, columns, callback, base) = slab
                built = list(zip(
                    times[lo:hi], range(base + lo, base + hi),
                    repeat(callback),
                    zip(*[column[lo:hi] for column in columns])))
                if entries:
                    entries.extend(built)
                    entries.sort()
                else:
                    entries = built
            else:
                entries.sort()
            self._front = entries
            self._front_pos = 0
            self._front_tick = tick
            return
        self._front = None
        self._front_pos = 0
