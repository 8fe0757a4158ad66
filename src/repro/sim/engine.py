"""The discrete-event simulation loop.

:class:`Simulator` owns the clock and two complementary event stores:

* a binary heap of ``(time, seq, callback, args)`` tuples for events
  scheduled with :meth:`Simulator.at` (live admission retries);
* a tick-bucketed calendar queue
  (:class:`~repro.sim.tickqueue.TickBucketQueue`) for the hot path:
  session-start slabs (:meth:`Simulator.extend_starts`, one call per
  trace chunk -- a whole trace is one chunk) and *session arcs*
  (:meth:`Simulator.start_arc`) whose steps land on the fixed
  ``SEGMENT_SECONDS`` grid.  These are stored as plain tuples -- no
  per-event object allocation, no per-event heap sift.

Both stores draw sequence numbers from one shared counter and the run
loop merges them by ``(time, seq)``, so the execution order is exactly
what a single global heap would produce: chronological with FIFO
tie-breaking within an instant.  The run loop activates the next
calendar bucket only once no heap event and no horizon comes before
its start, so a heap event can always start an arc one tick ahead.

Design notes
------------
* The clock only moves forward.  Scheduling an event in the past raises
  :class:`~repro.errors.SimulationError` immediately -- time travel is
  always a model bug and silently clamping it would corrupt results.
* The engine is callback-based rather than coroutine-based.  Trace-driven
  simulations are dominated by millions of tiny events (one per video
  segment); plain callbacks avoid generator overhead and keep per-event
  cost to a couple of list operations.
* ``run(until=...)`` supports horizons, which the chunk replay uses
  to drain up to each chunk boundary.
* When the whole event schedule is *static*, as in trace replay
  without admission, the drain loop itself can be skipped:
  :mod:`repro.sim.columnar` precomputes the ``(time, seq)``-ordered
  event stream of the same chunk stream as flat arrays, one window of
  tick buckets at a time (including the exact sequence numbers this
  engine's shared counter would assign: starts 0, 1, 2, ... and
  dynamic draws from :attr:`Simulator._STREAM_DYNAMIC_SEQ`), which is
  what ``engine="columnar"`` walks instead of running this loop.  The
  ordering contract documented here is therefore load-bearing for that
  module too: any change to the merge rule or the counter discipline
  must be mirrored there.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.tickqueue import SessionArc, TickBucketQueue
from repro.units import SEGMENT_SECONDS

#: Signature of an event callback: receives the scheduled arguments.
EventCallback = Callable[..., None]


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in simulated seconds (default ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.at(10.0, fired.append, "a")
    >>> sim.at(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    __slots__ = ("_now", "_heap", "_counter", "_buckets",
                 "_events_processed", "_running", "_start_seq")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list = []
        self._counter = itertools.count()
        self._buckets = TickBucketQueue(self._counter)
        self._events_processed = 0
        self._running = False
        #: Next session-start sequence number handed to extend_starts
        #: (replay keeps starts in a low band, see below).
        self._start_seq = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (diagnostics)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time: float, callback: EventCallback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}, clock is already "
                f"at t={self._now:.6f}"
            )
        _heappush(self._heap, (time, next(self._counter), callback, args))

    def preload_starts(self, times: Any, callback: EventCallback,
                       *columns: Any) -> None:
        """:meth:`extend_starts` on a fresh simulator (the one chunk).

        Nothing in the package calls it; it stays only because the
        benchmark's layer tracer wraps it by name (a missing target
        fails the traced pass), and goes with the next benchmark change.
        """
        self.extend_starts(times, callback, *columns)

    #: Sequence band for dynamically scheduled events under replay.
    #: extend_starts() cannot know the total session count up front, so
    #: instead of numbering dynamic draws past the starts it parks them
    #: in a high band and numbers starts 0, 1, 2, ... chunk after chunk.
    #: Relative order within each class is unchanged and every start
    #: precedes any coincident dynamic event -- the same total order as
    #: scheduling every start through at() before anything else, for
    #: any chunking of the storm.  The columnar schedule
    #: (:mod:`repro.sim.columnar`) numbers its events the same way.
    _STREAM_DYNAMIC_SEQ = 1 << 62

    def extend_starts(self, times: Any, callback: EventCallback,
                      *columns: Any) -> None:
        """Register one chunk of a start-sorted event storm mid-run.

        Start ``i`` fires ``callback(columns[0][i], columns[1][i],
        ...)`` at ``times[i]``: the columns are the payload (a replay
        passes a chunk's user, program and duration columns), and each
        argument row is built only when its bucket activates.  Every
        replay loads its starts here, as per-tick calendar slabs
        (:meth:`TickBucketQueue.extend_sorted`): call once per trace
        chunk (a whole trace is one chunk), in chronological chunk
        order, after running the clock to just before the chunk's
        window (so every earlier bucket has drained -- :meth:`run` with
        a horizon just below a tick boundary leaves later buckets
        unactivated for exactly this reason).  The first call must find
        a fresh simulator and switches dynamic sequence numbering to
        the high band described above, so any chunking of a trace fires
        bit-identically to scheduling each start through :meth:`at`.

        Raises
        ------
        SimulationError
            If called from inside :meth:`run`, on a non-fresh simulator
            for the first chunk, with a start before the clock, or with
            a mis-ordered / overlapping chunk.
        """
        if self._running:
            raise SimulationError(
                "simulator is not reentrant: extend_starts() called from "
                "a callback"
            )
        if len(times) and times[0] < self._now:
            raise SimulationError(
                f"cannot extend with a start at t={times[0]:.6f}, clock "
                f"is already at t={self._now:.6f}"
            )
        if self._start_seq == 0:
            if (self._events_processed or self._heap
                    or not self._buckets.fresh):
                raise SimulationError(
                    "extend_starts requires a fresh simulator for the "
                    "first chunk (no events executed or pending)"
                )
            self._counter = itertools.count(self._STREAM_DYNAMIC_SEQ)
            self._buckets._counter = self._counter
        try:
            n = self._buckets.extend_sorted(times, columns, callback,
                                            self._start_seq)
        except ValueError as error:
            raise SimulationError(str(error)) from None
        self._start_seq += n

    def start_arc(self, time: float, fn, *args: Any) -> SessionArc:
        """Register a session arc whose first step fires at ``time``.

        The engine calls ``fn(now, index, *args)`` at ``time`` and then
        every ``SEGMENT_SECONDS`` for as long as ``fn`` returns truthy;
        ``index`` counts steps from 0.  The whole arc costs one
        registration plus one tuple append per step -- the pattern for
        "one event per video segment until the viewer stops".

        Raises
        ------
        SimulationError
            If ``time`` is in the past or falls inside the bucket
            currently draining (arcs live on the forward bucket walk).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot start an arc at t={time:.6f}, clock is already "
                f"at t={self._now:.6f}"
            )
        if not self._buckets.accepts(time):
            raise SimulationError(
                f"arc start t={time:.6f} falls in the bucket currently "
                f"draining; schedule the first step at least one tick ahead"
            )
        return self._buckets.start_arc(time, fn, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the queues drain or the horizon.

        Parameters
        ----------
        until:
            Optional absolute time horizon.  Events at exactly ``until``
            are executed; later events remain queued and the clock is
            advanced to ``until``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant: run() called from a callback")
        self._running = True
        try:
            if until is None:
                limit = math.inf
            else:
                if until < self._now:
                    raise SimulationError(
                        f"horizon t={until} precedes current time t={self._now}"
                    )
                limit = until
            # The (time, seq) merge of the heap and the calendar
            # buckets.  This loop executes one iteration per simulated
            # event (hundreds of thousands per run), so structure access
            # is flattened into locals -- the bucket cursor lives in
            # `front`/`pos` and is only written back when the front
            # bucket changes or the loop exits, and arc continuation
            # appends straight into the target bucket.
            buckets = self._buckets
            heap = self._heap
            bucket_map = buckets._buckets
            tick_heap = buckets._tick_heap
            counter = self._counter
            width = SEGMENT_SECONDS
            heappop = _heappop
            heappush = _heappush
            processed = 0
            front = buckets._front
            pos = buckets._front_pos
            front_len = len(front) if front is not None else 0
            # The bucket one tick past the front, pre-created so arc
            # continuations are a bounds check + append.  Safe because a
            # front bucket never grows once activated (arcs only start
            # in later buckets) and arcs step exactly one tick.
            next_lo = next_hi = -1.0
            next_bucket: Optional[list] = None
            try:
                while True:
                    if front is None or pos >= front_len:
                        buckets._front_pos = pos
                        start = tick_heap[0] * width if tick_heap else -math.inf
                        if start > limit or (heap and heap[0][0] < start):
                            # Activate the earliest pending bucket only
                            # once neither the horizon nor the heap head
                            # precedes its start: activation advances
                            # _front_tick, so accepts()/extend_sorted
                            # would refuse that tick to an arc a heap
                            # event starts, or to a streamed replay's
                            # next chunk.  Re-checked every iteration.
                            front = None
                            front_len = 0
                            next_bucket = None
                            next_lo = next_hi = -1.0
                            if not heap:
                                break
                        else:
                            buckets._activate_next_bucket()
                            front = buckets._front
                            pos = buckets._front_pos
                            if front is not None:
                                front_len = len(front)
                                next_tick = buckets._front_tick + 1
                                next_lo = next_tick * width
                                next_hi = next_lo + width
                                next_bucket = bucket_map.get(next_tick)
                            else:
                                front_len = 0
                                next_bucket = None
                                next_lo = next_hi = -1.0
                    # Both entry shapes open with (time, seq) and seqs
                    # are unique, so tuple comparison is the merge rule.
                    if pos < front_len:
                        entry = front[pos]
                        use_bucket = not heap or entry < heap[0]
                    elif heap:
                        use_bucket = False
                    else:
                        break

                    if use_bucket:
                        time = entry[0]
                        if time > limit:
                            break
                        pos += 1
                        self._now = time
                        processed += 1
                        if len(entry) == 3:
                            arc = entry[2]
                            index = arc.index
                            arc.index = index + 1
                            if arc.fn(time, index, *arc.args):
                                # Inlined deposit of the next step.  An
                                # arc steps exactly one tick, so nearly
                                # every deposit lands in the cached
                                # next-door bucket; float rounding can
                                # (rarely) push it one further, handled
                                # by the general branch.
                                next_time = time + width
                                if next_lo <= next_time < next_hi:
                                    if next_bucket is None:
                                        # A callback may have created
                                        # this bucket via start_arc()
                                        # since activation cached it.
                                        next_bucket = bucket_map.get(next_tick)
                                        if next_bucket is None:
                                            next_bucket = []
                                            bucket_map[next_tick] = next_bucket
                                            heappush(tick_heap, next_tick)
                                    next_bucket.append(
                                        (next_time, next(counter), arc)
                                    )
                                else:
                                    tick = int(next_time // width)
                                    bucket = bucket_map.get(tick)
                                    if bucket is None:
                                        bucket_map[tick] = [
                                            (next_time, next(counter), arc)
                                        ]
                                        heappush(tick_heap, tick)
                                    else:
                                        bucket.append(
                                            (next_time, next(counter), arc)
                                        )
                        else:
                            entry[2](*entry[3])
                    else:
                        time = heap[0][0]
                        if time > limit:
                            break
                        _, _, callback, args = heappop(heap)
                        self._now = time
                        processed += 1
                        callback(*args)
            finally:
                buckets._front_pos = pos
                self._events_processed += processed
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
