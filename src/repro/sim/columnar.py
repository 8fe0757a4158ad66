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

:func:`build_schedule` yields the stream in *windows* of
:data:`WINDOW_TICKS` tick buckets, so one window of events is resident,
not the whole run.  A window expands the sessions starting in it, level
by level; events past its end are *carried* into the next window with
their time, watch, record, level, delivered flag, child link and (once
their parent has fired) sequence number.  One sequence counter runs
across all windows, so the concatenated windows are the same stream at
any width (``tests/sim/test_columnar.py``).  An empty gap is skipped:
the next window opens at the earlier of the next start's bucket and the
earliest carried event's bucket.

Ordering contract (must match :mod:`repro.sim.engine` +
:mod:`repro.sim.tickqueue` exactly):

* global firing order is lexicographic ``(time, seq)``;
* session start ``i`` (record ``i`` of the sorted trace) has
  ``seq == i`` (``Simulator.preload_starts`` rebases the shared
  counter past the slab);
* every event that *deposits* a continuation draws the next counter
  value for its child at its own firing -- so arc-event seqs depend on
  how starts and continuations interleave.

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

from typing import Any, Iterator, List, Sequence, Tuple

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
    those no-ops, since they mutate no state.  ``rec`` / ``time`` /
    ``watch`` / ``segment`` describe the remaining events in exact
    firing order; ``is_start`` marks session starts (which do session
    bookkeeping even when nothing is delivered) and ``delivered`` marks
    events that request a segment (false only for starts whose first
    segment is float noise).
    """

    __slots__ = ("n_events", "rec", "time", "watch", "segment",
                 "is_start", "delivered")

    def __init__(self, n_events: int, rec: Array, time: Array, watch: Array,
                 segment: Array, is_start: Array, delivered: Array) -> None:
        self.n_events = n_events
        self.rec = rec
        self.time = time
        self.watch = watch
        self.segment = segment
        self.is_start = is_start
        self.delivered = delivered


def _expand(s: Array, e: Array, last: Array, lo: int, hi: int,
            base: int) -> List[Array]:
    """Every event of sessions ``lo..hi-1``, as pool columns.

    Returns ``[rec, time, watch, level, delivered, child, seq, bucket]``
    in level-major order.  Level ``k`` is "the event that would deliver
    segment ``k``" -- level 0 the session start, level ``k > 0`` the
    ``(k-1)``-th arc step.  Iterating levels (bounded by the longest
    program) with the sessions vectorized mirrors the scalar per-event
    stepping: watch capping, the 1e-6 sliver guard, and the
    continuation test use the exact scalar expressions.  ``child``
    indexes the pool these columns are appended to at offset ``base``;
    ``seq`` is the record index for starts and -1 until a parent fires.
    """
    import numpy as np

    levels: List[Tuple[Array, ...]] = []
    alive = np.arange(lo, hi, dtype=np.int64)
    t = s[lo:hi]
    ends, lasts = e[lo:hi], last[lo:hi]
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
    seq[:hi - lo] = level_rec[0]
    return [
        np.concatenate(level_rec),
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

    rec, time, watch, level, delivered, child, seq, bucket = pool

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
    segment = level[walk]
    window = ColumnarSchedule(int(order.size), rec[walk], time[walk],
                              watch[walk], segment, segment == 0,
                              delivered[walk])

    carried = bucket >= end
    out = np.flatnonzero(carried)
    renumber = np.cumsum(carried) - 1
    out_child = child[out]
    carry = [rec[out], time[out], watch[out], level[out], delivered[out],
             np.where(out_child >= 0, renumber[out_child], -1),
             seq[out], bucket[out]]
    return window, carry, next_seq


def build_schedule(
    start_times: Sequence[float],
    durations: Sequence[float],
    program_ids: Sequence[int],
    last_segment_by_program: Sequence[int],
) -> Iterator[ColumnarSchedule]:
    """Yield the drain loop's event stream for one trace, window by window.

    Each window holds the events of :data:`WINDOW_TICKS` consecutive
    tick buckets in firing order; an empty trace yields nothing.  Every
    float here reproduces the scalar engines' arithmetic operation for
    operation (same operands, same associativity), just elementwise
    over a window's sessions -- which is what makes the columnar engine
    bit-identical rather than merely close.
    """
    import numpy as np

    s = np.asarray(start_times, dtype=np.float64)
    d = np.asarray(durations, dtype=np.float64)
    p = np.asarray(program_ids, dtype=np.int64)
    n = s.size
    last = np.asarray(last_segment_by_program, dtype=np.int64)[p]
    e = s + d
    start_bucket = _floor_div_exact(s, _SEG)
    carry = _expand(s, e, last, 0, 0, 0)
    next_seq = n  # starts hold seqs 0..n-1
    lo = 0
    while lo < n or carry[0].size:
        heads = [int(start_bucket[lo])] if lo < n else []
        if carry[0].size:
            heads.append(int(carry[-1].min()))  # earliest carried bucket
        end = min(heads) + WINDOW_TICKS
        hi = int(np.searchsorted(start_bucket, end, side="left"))
        window, carry, next_seq = _fire([
            np.concatenate(pair)
            for pair in zip(carry, _expand(s, e, last, lo, hi, carry[0].size))
        ], end, next_seq)
        lo = hi
        yield window
