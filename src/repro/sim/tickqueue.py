"""Tick-bucketed calendar queue for the on-grid event storm.

Trace replay schedules one delivery per 5-minute video segment, so the
overwhelming majority of events land ``SEGMENT_SECONDS`` apart.  Pushing
each of them through the binary heap costs an :class:`~repro.sim.events.Event`
allocation plus two O(log n) sift passes.  This module stores them as
plain tuples in per-tick *buckets* instead: scheduling is an O(1) list
append, and each bucket is sorted once (a single C-level ``list.sort``
over mostly-ordered data) when the clock reaches it.

Two entry shapes share a bucket:

* ``(time, seq, callback, args)`` -- a fire-and-forget callback
  scheduled with :meth:`TickBucketQueue.push`;
* ``(time, seq, arc)`` -- one step of a :class:`SessionArc`.

``seq`` values come from the same monotonic counter as the heap's, so
merging bucket entries with heap events by ``(time, seq)`` reproduces
exactly the global FIFO-within-an-instant order a single heap would
give.  Sequence numbers are unique, so sorting never compares the
mismatched tails of the two tuple shapes.

Session-start slabs
-------------------

Trace replay begins with a second storm: one session-*start* event per
trace record, all registered before the clock moves.  Pushing each of
them through :meth:`push` costs a tick computation, a dict probe and a
counter draw per record.  :meth:`preload_sorted` instead stores the
whole start-sorted column as per-bucket **slabs** -- ``(lo, hi)`` slices
into the caller's own lists, found with one bisect per bucket -- and
materializes a slab into ``(time, seq, callback, args)`` entries only
when its bucket is activated.  Because preloading happens on a fresh
queue, record ``i`` simply *is* sequence number ``i``, which is exactly
what a per-record :meth:`push` loop would have assigned: the resulting
execution order is bit-identical, and buckets past a run's horizon
never pay for materialization at all.

The columnar engine (:mod:`repro.sim.columnar`) leans on two facts
pinned here: start ``i`` holds sequence number ``i`` (the slab rebase),
and an arc continuation deposited at ``time + tick_seconds`` always
lands in a strictly later bucket than its parent -- so the whole
bucket-by-bucket firing order can be reproduced without running the
queue at all.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from itertools import islice
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro import units

#: Default bucket width: the segment grid the workload runs on.
DEFAULT_TICK_SECONDS = units.SEGMENT_SECONDS


class SessionArc:
    """A self-perpetuating run of callbacks one tick apart.

    A session's segment flow is fully determined at session start: one
    delivery every ``SEGMENT_SECONDS`` until the viewer walks away.
    Registering the whole arc once replaces the per-segment
    schedule-one-event chain; each step costs a single tuple append.

    The engine calls ``fn(now, index, *args)`` per step; the callback
    returns ``True`` to continue (the next step is deposited one tick
    later) or ``False`` to end the arc.  ``index`` counts fired steps
    from 0.  :meth:`TickBucketQueue.cancel_arc` retracts an in-flight
    arc; its already-deposited entry is skipped when its bucket drains.
    """

    __slots__ = ("fn", "args", "time", "index", "active", "pending")

    def __init__(self, time: float, fn: Callable[..., bool], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.index = 0
        self.active = True
        #: Whether a bucket entry for the next step is outstanding
        #: (False exactly while the arc's callback is executing or after
        #: the arc ends) -- keeps live-event accounting exact on cancel.
        self.pending = False


class TickBucketQueue:
    """Calendar queue of tick-wide buckets merged with the event heap.

    The queue does not own a clock; :class:`~repro.sim.engine.Simulator`
    drives it and interleaves its entries with the binary heap by
    ``(time, seq)``.  ``counter`` must be the same sequence source the
    heap uses -- shared numbering is what makes the merge a total order.
    """

    __slots__ = ("width", "_counter", "_buckets", "_tick_heap",
                 "_front", "_front_pos", "_front_tick", "_live",
                 "_slabs")

    def __init__(self, counter: Iterator[int],
                 tick_seconds: float = DEFAULT_TICK_SECONDS) -> None:
        if tick_seconds <= 0:
            raise ValueError(f"tick width must be positive, got {tick_seconds}")
        self.width = float(tick_seconds)
        self._counter = counter
        self._buckets: dict[int, List[tuple]] = {}
        self._tick_heap: List[int] = []
        #: Sorted entries of the bucket currently being drained.
        self._front: Optional[List[tuple]] = None
        self._front_pos = 0
        #: Tick index of ``_front`` (-1 before any bucket is activated).
        self._front_tick = -1
        self._live = 0
        #: tick -> (lo, hi, (times, payloads, callback, base_seq)):
        #: a slice of a preloaded start column plus its backing source.
        #: The record at slice index ``i`` carries sequence number
        #: ``base_seq + i`` (0 for the whole-trace preload, a running
        #: chunk offset for streamed extensions).  Per-slab sources let
        #: a chunk's columns be released as soon as its last bucket
        #: drains -- the whole point of streaming replay.
        self._slabs: dict[int, Tuple[int, int, tuple]] = {}

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def tick_of(self, time: float) -> int:
        """Bucket index covering ``time``."""
        return int(time // self.width)

    def accepts(self, time: float) -> bool:
        """Whether ``time`` falls in a bucket not yet activated.

        Entries may only join buckets strictly later than the one being
        drained; anything earlier must go to the heap so ordering never
        depends on a bucket the walk already sorted.
        """
        return int(time // self.width) > self._front_tick

    def push(self, time: float, callback: Callable[..., None],
             args: Tuple[Any, ...]) -> None:
        """Append a fire-and-forget entry (caller checked :meth:`accepts`)."""
        self._deposit((time, next(self._counter), callback, args))

    def start_arc(self, time: float, fn: Callable[..., bool],
                  args: Tuple[Any, ...]) -> SessionArc:
        """Register an arc whose first step fires at ``time``."""
        arc = SessionArc(time, fn, args)
        arc.pending = True
        self._deposit((time, next(self._counter), arc))
        return arc

    def cancel_arc(self, arc: SessionArc) -> None:
        """Retract an in-flight arc (idempotent).

        The arc's pending bucket entry stays where it is and is skipped
        when its bucket drains -- the same lazy deletion the heap uses.
        """
        if arc.active:
            arc.active = False
            if arc.pending:
                arc.pending = False
                self._live -= 1

    def preload_sorted(self, times: Sequence[float], payloads: Sequence[Any],
                       callback: Callable[..., None]) -> int:
        """Bulk-register ``callback(payload)`` firings from sorted columns.

        ``times`` must be ascending (the trace's chronological
        invariant, verified here with one C-level pairwise scan -- a
        mis-ordered column would mis-bucket silently) and is grouped
        into per-tick slabs with one bisect per distinct tick; no
        per-entry tuple, dict probe or counter draw happens until a
        bucket is activated.  Requires a *fresh*
        queue (nothing deposited, nothing drained): preloaded entry
        ``i`` takes sequence number ``i``, byte-for-byte what a
        per-entry :meth:`push` loop over the same columns would have
        assigned, so callers must rebase the shared counter past the
        returned count before scheduling anything else.
        """
        # _live alone is not enough: a cancelled entry decrements it but
        # stays lazily deleted inside its bucket, and overwriting that
        # bucket here would double-push its tick onto the heap.
        if (self._live or self._buckets or self._tick_heap
                or self._front is not None or self._front_tick != -1):
            raise ValueError("preload_sorted requires a fresh queue")
        n = len(times)
        if len(payloads) != n:
            raise ValueError(
                f"preload columns disagree: {n} times vs "
                f"{len(payloads)} payloads"
            )
        if not all(map(operator.le, times, islice(times, 1, None))):
            raise ValueError("preload_sorted requires ascending times")
        width = self.width
        src = (times, payloads, callback, 0)
        lo = 0
        while lo < n:
            tick = int(times[lo] // width)
            hi = bisect_left(times, (tick + 1) * width, lo)
            self._slabs[tick] = (lo, hi, src)
            # Pre-create the bucket so later deposits into a slab tick
            # append instead of double-pushing the tick onto the heap.
            self._buckets[tick] = []
            heapq.heappush(self._tick_heap, tick)
            lo = hi
        self._live += n
        return n

    def extend_sorted(self, times: Sequence[float], payloads: Sequence[Any],
                      callback: Callable[..., None], base_seq: int) -> int:
        """Append a later slab of sorted starts to a *running* queue.

        The streaming-replay counterpart of :meth:`preload_sorted`: the
        trace arrives chunk by chunk, so each chunk's columns are
        registered mid-run, after earlier buckets have already drained.
        Entry ``i`` of this slab takes sequence number ``base_seq + i``
        -- the caller threads a running record index through so a
        streamed replay assigns every record the same sequence number
        the whole-trace preload would have.

        ``times`` must be ascending and must land strictly past the
        bucket currently being drained (the chunk protocol: the driver
        runs the clock to just before a chunk's window start before
        extending, and hour-aligned windows are tick-aligned because
        the 3600 s hour is a multiple of the 300 s tick).  Ticks that
        already hold deposited entries (arc continuations scheduled
        into the new chunk's window) are merged, not overwritten.
        """
        n = len(times)
        if len(payloads) != n:
            raise ValueError(
                f"extend columns disagree: {n} times vs "
                f"{len(payloads)} payloads"
            )
        if not all(map(operator.le, times, islice(times, 1, None))):
            raise ValueError("extend_sorted requires ascending times")
        if n == 0:
            return 0
        width = self.width
        if int(times[0] // width) <= self._front_tick:
            raise ValueError(
                "extend_sorted slab starts at or before the bucket "
                "being drained; run the clock past the chunk boundary "
                "before extending"
            )
        src = (times, payloads, callback, base_seq)
        lo = 0
        while lo < n:
            tick = int(times[lo] // width)
            hi = bisect_left(times, (tick + 1) * width, lo)
            if tick in self._slabs:
                raise ValueError(
                    f"extend_sorted slab collides with an existing slab "
                    f"at tick {tick}"
                )
            self._slabs[tick] = (lo, hi, src)
            if tick not in self._buckets:
                self._buckets[tick] = []
                heapq.heappush(self._tick_heap, tick)
            lo = hi
        self._live += n
        return n

    def _deposit(self, entry: tuple) -> None:
        tick = int(entry[0] // self.width)
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [entry]
            heapq.heappush(self._tick_heap, tick)
        else:
            bucket.append(entry)
        self._live += 1

    # ------------------------------------------------------------------
    # Draining (driven by the simulator)
    # ------------------------------------------------------------------

    def _activate_next_bucket(self) -> None:
        """Advance ``_front`` to the earliest pending bucket, sorted.

        A preloaded start slab materializes here: its entries come out
        time- and seq-ascending by construction, so a slab-only bucket
        skips the sort entirely and a mixed bucket merges the slab run
        into one adaptive ``list.sort``.
        """
        while self._tick_heap:
            tick = heapq.heappop(self._tick_heap)
            entries = self._buckets.pop(tick)
            slab = self._slabs.pop(tick, None)
            if slab is not None:
                lo, hi, (times, payloads, callback, base) = slab
                built = [(times[i], base + i, callback, (payloads[i],))
                         for i in range(lo, hi)]
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
