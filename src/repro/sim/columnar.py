"""Columnar replay schedule: the drain loop's event stream, window by window.

The replay's event schedule is *static*: a session's segment flow is
fully determined by its trace record (start, duration) and its program's
segment count, and nothing an event does can cancel or reschedule
another event.  The bucket engine already exploits per-session
determinism (one :class:`~repro.sim.tickqueue.SessionArc` instead of a
heap entry per segment); this module exploits whole-trace determinism:
every event the drain loop would fire -- with its exact global ordering
-- can be computed ahead of the walk as flat numpy arrays.  The walk
over those arrays (``CableVoDSystem._run_columnar``) then performs only
the *stateful* per-event work (strategy decisions, channel leases, cache
fills) while metering and outcome counting move to vectorized folds.

:func:`build_schedule` reads the session starts from a stream of trace
chunks and yields the event stream in *windows* of :data:`WINDOW_TICKS`
tick buckets, so one window of events is resident, not the whole run.
A window is final once a read chunk's ``end_second`` reaches its end,
or at the stream's end (so a one-chunk stream with window bounds 0
expands at exhaustion); it expands the sessions starting in it, level
by level, and *carries* events past its end into the next window with
their per-session columns, level, child link and (once their parent
has fired) sequence number.  One sequence counter runs across all
windows, so the concatenated windows are the same stream at any width
and any chunking (``tests/sim/test_columnar.py``).  An empty gap is
skipped: the next window opens at the earlier of the next start's
bucket and the earliest carried event's bucket.

Ordering contract (must match :mod:`repro.sim.engine` +
:mod:`repro.sim.tickqueue` exactly):

* global firing order is lexicographic ``(time, seq)``;
* session starts are numbered ``0, 1, 2, ...`` in trace order, chunk
  after chunk -- the numbering ``Simulator.extend_starts`` gives them
  on the bucket engine, for a whole trace and a chunk stream alike;
* every event that *deposits* a continuation draws the next counter
  value for its child at its own firing, from the dynamic band that
  starts at ``Simulator._STREAM_DYNAMIC_SEQ`` (``1 << 62``, above every
  start) -- so arc-event seqs depend on how starts and continuations
  interleave.

The structural fact that makes seq assignment batchable: a continuation
fires exactly ``SEGMENT_SECONDS`` after its parent, and the tick width
*is* ``SEGMENT_SECONDS``, so a child always lands in a strictly later
tick bucket than its parent (for any time ``t >= 300 * B``, the float
sum ``t + 300.0`` is ``>= 300 * (B + 1)``, which is exactly
representable).  Walking buckets in time order therefore sees every
member's seq already assigned; one lexsort per bucket reproduces the
engine's firing order, and the counter values its deposits draw follow
from that order.  The same fact means a carried event's child is
carried too.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import units

#: A numpy array.  numpy is optional (imported inside the functions that
#: need it), so the annotations name arrays by this alias.
Array = Any

_SEG = float(units.SEGMENT_SECONDS)
_EPS = 1e-6

#: Tick buckets per schedule window: 72 x 300 s is six simulated hours.
#: The columnar engine holds one window of events at a time; the
#: concatenated windows are the same schedule at any value.
WINDOW_TICKS = 72


def _floor_div_exact(values: Array, width: float) -> Array:
    """True mathematical floor of ``values / width`` as int64.

    ``np.floor(values / width)`` can be off by one when a value sits
    within a rounding error of a multiple of ``width``, while Python's
    float ``//`` (fmod-corrected) never is.  One correction step each
    way restores the exact floor: the quotient is always within one of
    the truth, and ``q * width`` is exact for the magnitudes involved
    (integer-valued products far below 2**53).
    """
    import numpy as np

    q = np.floor(values / width)
    q[q * width > values] -= 1.0
    q[(q + 1.0) * width <= values] += 1.0
    return q.astype(np.int64)


class ColumnarSchedule:
    """One window of the event stream of a trace replay, in firing order.

    ``n_events`` counts every event of the window the scalar engines
    would fire, including trailing arc steps that deliver nothing (the
    float-noise guard in the drain loop); the parallel arrays exclude
    those no-ops, since they mutate no state.  ``user`` / ``program`` /
    ``end`` (the session's ``start + duration``) / ``time`` / ``watch``
    / ``segment`` describe the remaining events in exact firing order;
    segment 0 marks session starts (which do session bookkeeping even
    when nothing is delivered) and ``delivered`` marks events that
    request a segment (false only for starts whose first segment is
    float noise).
    """

    __slots__ = ("n_events", "user", "program", "end", "time", "watch",
                 "segment", "delivered")

    def __init__(self, n_events: int, user: Array, program: Array,
                 end: Array, time: Array, watch: Array, segment: Array,
                 delivered: Array) -> None:
        self.n_events = n_events
        self.user = user
        self.program = program
        self.end = end
        self.time = time
        self.watch = watch
        self.segment = segment
        self.delivered = delivered


def _read(pending: List[Array], chunk: Any) -> List[Array]:
    """``pending`` plus ``chunk``'s starts: ``[start, end, user, program]``."""
    import numpy as np

    s = np.asarray(chunk.start_times, dtype=np.float64)
    read = [s, s + np.asarray(chunk.durations, dtype=np.float64),
            np.asarray(chunk.user_ids, dtype=np.int64),
            np.asarray(chunk.program_ids, dtype=np.int64)]
    if not pending[0].size:
        return read
    return [np.concatenate(pair) for pair in zip(pending, read)]


def _expand(starts: List[Array], hi: int, last_of: Array, base: int,
            first_seq: int) -> List[Array]:
    """Every event of the first ``hi`` sessions of ``starts``, as pool columns.

    Returns ``[user, program, end, time, watch, level, delivered, child,
    seq, bucket]`` in level-major order.  Level ``k`` is "the event
    that would deliver segment ``k``" -- level 0 the session start,
    level ``k > 0`` the ``(k-1)``-th arc step.  Iterating levels
    (bounded by the longest program) with the sessions vectorized
    mirrors the scalar per-event stepping: watch capping, the 1e-6
    sliver guard, and the continuation test use the exact scalar
    expressions.  ``child`` indexes the pool at offset ``base``;
    ``seq`` numbers the starts from ``first_seq``, -1 elsewhere.
    """
    import numpy as np

    s, e, user, program = starts
    levels: List[Tuple[Array, ...]] = []
    alive = np.arange(hi, dtype=np.int64)
    t = s[:hi]
    ends, lasts = e[:hi], last_of[program[:hi]]
    while True:  # level 0 always runs, so an empty range has typed columns
        watch = ends - t
        np.minimum(watch, _SEG, out=watch)
        delivered = watch > _EPS
        cont = (delivered & (len(levels) < lasts)
                & (ends > (t + _SEG) + _EPS))
        levels.append((alive, t, watch, delivered, cont))
        alive = alive[cont]
        if not alive.size:
            break
        ends, lasts = ends[cont], lasts[cont]
        # Iterative accumulation, never a closed form: the engine's arc
        # deposit computes each next tick as ``time + width``.
        t = t[cont] + _SEG
    level_rec, level_time, level_watch, level_del, level_cont = zip(*levels)

    sizes = [a.size for a in level_rec]
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    flat_time = np.concatenate(level_time)
    rec = np.concatenate(level_rec)

    # Child pointer: the j-th continuing event of level k (in level-array
    # order) is the parent of the j-th event of level k + 1, because
    # ``alive[k+1] = alive[k][cont[k]]`` preserves order.
    child = np.full(total, -1, dtype=np.int64)
    for level in range(len(sizes) - 1):
        parents = np.flatnonzero(level_cont[level]) + offsets[level]
        child[parents] = base + offsets[level + 1] + np.arange(
            sizes[level + 1], dtype=np.int64
        )
    seq = np.full(total, -1, dtype=np.int64)
    seq[:hi] = np.arange(first_seq, first_seq + hi, dtype=np.int64)
    return [
        user[rec], program[rec], e[rec],
        flat_time,
        np.concatenate(level_watch),
        np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        np.concatenate(level_del),
        child,
        seq,
        _floor_div_exact(flat_time, _SEG),
    ]


def _fire(pool: List[Array], end: int,
          next_seq: int) -> Tuple[ColumnarSchedule, List[Array], int]:
    """Fire the pool's events in buckets before ``end``; carry the rest.

    Returns the window, the carried pool (child links renumbered into
    it) and the advanced sequence counter.  Temporaries die on return,
    so only the window and the carry stay resident while it is walked.
    """
    import numpy as np

    (user, program, ends, time, watch, level, delivered, child, seq,
     bucket) = pool

    # ------------------------------------------------------------------
    # Seq assignment: walk the window's tick buckets in time order.  Each
    # bucket's firing order is its (time, seq) sort, and its depositing
    # members hand the next counter values to their children -- which,
    # living in strictly later buckets (in this window or a later one),
    # are always assigned before they are ordered.
    # ------------------------------------------------------------------
    inside = np.flatnonzero(bucket < end)
    order = inside[np.argsort(bucket[inside], kind="stable")]
    sorted_buckets = bucket[order]
    cuts = np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1
    bounds = [0] + cuts.tolist() + [int(order.size)]
    firing = np.empty(order.size, dtype=np.int64)
    has_child = child >= 0
    for first, stop in zip(bounds, bounds[1:]):
        members = order[first:stop]
        members = members[np.lexsort((seq[members], time[members]))]
        firing[first:stop] = members
        depositors = members[has_child[members]]
        if depositors.size:
            seq[child[depositors]] = next_seq + np.arange(
                depositors.size, dtype=np.int64
            )
            next_seq += depositors.size

    # Arc steps whose watch collapsed to float noise fire but mutate
    # nothing -- drop them from the walk, keep them in the event count.
    walk = firing[delivered[firing] | (level[firing] == 0)]
    window = ColumnarSchedule(int(order.size), user[walk], program[walk],
                              ends[walk], time[walk], watch[walk],
                              level[walk], delivered[walk])

    carried = bucket >= end
    out = np.flatnonzero(carried)
    renumber = np.cumsum(carried) - 1
    out_child = child[out]
    carry = [column[out] for column in pool]
    carry[7] = np.where(out_child >= 0, renumber[out_child], -1)
    return window, carry, next_seq


def build_schedule(
    chunks: Iterable[Any],
    last_segment_by_program: Sequence[int],
) -> Iterator[ColumnarSchedule]:
    """Yield the drain loop's event stream from chunks, window by window.

    ``chunks`` yields :class:`~repro.trace.records.TraceChunk`-shaped
    objects, ascending and non-overlapping.  Each window holds the
    events of :data:`WINDOW_TICKS` consecutive tick buckets in firing
    order; a stream without starts yields nothing.  Every float here
    reproduces the scalar engines' arithmetic operation for operation
    (same operands, same associativity), just elementwise over a
    window's sessions -- which is what makes the columnar engine
    bit-identical rather than merely close.
    """
    import numpy as np

    from repro.sim.engine import Simulator

    last_of = np.asarray(last_segment_by_program, dtype=np.int64)
    # Starts read but not yet expanded, as _read's columns.
    pending = [np.empty(0)] * 2 + [np.empty(0, dtype=np.int64)] * 2
    carry = _expand(pending, 0, last_of, 0, 0)
    first_seq, next_seq = 0, Simulator._STREAM_DYNAMIC_SEQ
    source = iter(chunks)
    # Every unread start's bucket is at or past this; None once the
    # stream is exhausted.
    horizon: Optional[int] = 0
    while True:
        # Python's float // is the exact floor (see _floor_div_exact).
        heads = [int(float(pending[0][0]) // _SEG)] if pending[0].size else []
        if carry[0].size:
            heads.append(int(carry[-1].min()))  # earliest carried bucket
        end = min(heads, default=0) + WINDOW_TICKS
        if horizon is not None and (not heads or end > horizon):
            # An unread start may still fall in this window: read on.
            chunk = next(source, None)
            if chunk is None:
                horizon = None
                continue
            horizon = int(chunk.end_second // _SEG)
            pending = _read(pending, chunk)
            del chunk  # its starts live on in ``pending`` alone
            continue
        if not heads:
            return
        # Starts in buckets before ``end`` (``end * _SEG`` is exact).
        hi = int(np.searchsorted(pending[0], end * _SEG, side="left"))
        window, carry, next_seq = _fire([
            np.concatenate(pair)
            for pair in zip(carry, _expand(pending, hi, last_of,
                                           carry[0].size, first_seq))
        ], end, next_seq)
        first_seq += hi
        pending = [column[hi:] for column in pending]
        yield window
