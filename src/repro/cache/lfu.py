"""Least-Frequently-Used cache membership with a sliding history window.

Paper section IV-B.2: "To compute the cache contents, the index server
keeps a history of all events that occur within the last N hours (where N
is a parameter to the algorithm).  It calculates the number of accesses
for each program in this history.  Items that are accessed the most
frequently are stored in the cache, with ties being resolved using an LRU
strategy."

Data structures
---------------
* :class:`WindowedCounts` -- a deque of (time, program) events plus a
  count dict; expiry drains the deque front in one batched pass and
  notifies listeners once per changed program.  This is the shared
  count source for every frequency-based policy (classic and engine).
* The eviction order inside :class:`LFUStrategy` is a *push-on-change*
  min-heap keyed ``(count, last_access, program)``: every time a member's
  key changes, the new key is pushed; stale entries are discarded on pop
  by comparing against the live dicts.  Pops therefore always return the
  true minimum -- this is an exact LFU, not an approximation.

:class:`LFUStrategy` is the *classic reference implementation*: every
spec builds the policy engine's
:class:`~repro.cache.policies.eviction.LFUEviction` instead (same
decisions, proven bit-identical in :mod:`tests.cache.test_policy_engine`,
with a deferred dirty-set heap and compaction for the hot path).

``history_hours=0`` degenerates to LRU exactly as the paper states
(Fig 11): every count has expired by decision time, so ordering reduces
to the last-access tie-break.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro import units
from repro.cache.base import CacheStrategy, MembershipChange
from repro.errors import ConfigurationError


class WindowedCounts:
    """Per-program access counts over a sliding time window.

    ``window_seconds`` of 0 means counts exist only at the instant of the
    access that created them (the LRU degenerate case); ``None`` means an
    infinite window (counts never expire).
    """

    __slots__ = ("_window", "_events", "_counts", "_listeners")

    def __init__(self, window_seconds: Optional[float]) -> None:
        if window_seconds is not None and window_seconds < 0:
            raise ConfigurationError(
                f"history window must be non-negative, got {window_seconds}"
            )
        self._window = window_seconds
        self._events: Deque[Tuple[float, int]] = deque()
        self._counts: Dict[int, int] = {}
        self._listeners: List[Callable[[int], None]] = []

    def add_change_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired with the program id on every change."""
        self._listeners.append(listener)

    def _notify(self, program_id: int) -> None:
        for listener in self._listeners:
            listener(program_id)

    def record(self, now: float, program_id: int) -> None:
        """Record one access at time ``now``."""
        self._events.append((now, program_id))
        self._counts[program_id] = self._counts.get(program_id, 0) + 1
        self._notify(program_id)

    def advance(self, now: float) -> None:
        """Expire events older than the window relative to ``now``.

        Expiry is *batched*: the whole backlog up to ``now`` is drained
        in one pass and listeners are notified once per changed program
        (insertion-ordered) rather than once per expired event.  Counts
        at decision time are identical either way; batching only trims
        redundant notifications -- a program losing k events in one
        advance used to trigger k heap re-pushes downstream, k-1 of
        which were stale on arrival.
        """
        if self._window is None:
            return
        threshold = now - self._window
        events = self._events
        if not events or events[0][0] > threshold:
            return
        counts = self._counts
        changed: Dict[int, None] = {}
        while events and events[0][0] <= threshold:
            _, program_id = events.popleft()
            remaining = counts[program_id] - 1
            if remaining:
                counts[program_id] = remaining
            else:
                del counts[program_id]
            changed[program_id] = None
        if self._listeners:
            for program_id in changed:
                self._notify(program_id)

    def count(self, program_id: int) -> int:
        """Accesses to ``program_id`` currently inside the window."""
        return self._counts.get(program_id, 0)

    def __len__(self) -> int:
        return len(self._events)


class LFUStrategy(CacheStrategy):
    """Exact sliding-window LFU with LRU tie-breaking.

    Parameters
    ----------
    history_hours:
        Length of the access history the popularity estimate is computed
        over (the paper sweeps 0-12 *days* in Fig 11; its baseline LFU
        configurations use multi-day histories).  ``None`` keeps the full
        history.
    """

    name = "lfu"

    #: Default history window.  Fig 11 shows savings emerging past 24 h
    #: and tapering beyond a week; three days is the sweet spot the other
    #: experiments' LFU curves are consistent with.
    DEFAULT_HISTORY_HOURS = 72.0

    __slots__ = ("_counts", "_last_access", "_heap")

    def __init__(self, history_hours: Optional[float] = DEFAULT_HISTORY_HOURS) -> None:
        super().__init__()
        window = None if history_hours is None else history_hours * units.SECONDS_PER_HOUR
        self._counts = WindowedCounts(window)
        self._counts.add_change_listener(self._on_count_change)
        self._last_access: Dict[int, float] = {}
        self._heap: List[Tuple[int, float, int]] = []

    # -- subclass seams -------------------------------------------------

    def _advance_counts(self, now: float) -> None:
        """Bring the count source up to ``now``."""
        self._counts.advance(now)

    def _record_access(self, now: float, program_id: int) -> None:
        """Feed one access into the count source."""
        self._counts.record(now, program_id)

    def _count(self, program_id: int) -> int:
        """Current popularity estimate for ``program_id``."""
        return self._counts.count(program_id)

    # -- heap maintenance ------------------------------------------------

    def _on_count_change(self, program_id: int) -> None:
        """Keep the eviction heap exact: re-push members whose key moved."""
        if program_id in self._members:
            self._push_entry(program_id)

    def _push_entry(self, program_id: int) -> None:
        heapq.heappush(
            self._heap,
            (self._count(program_id), self._last_access.get(program_id, 0.0), program_id),
        )

    def _entry_is_current(self, entry: Tuple[int, float, int]) -> bool:
        count, last, program_id = entry
        return (
            program_id in self._members
            and count == self._count(program_id)
            and last == self._last_access.get(program_id, 0.0)
        )

    def _pop_min(self, excluded: Set[int]) -> Optional[Tuple[int, float, int]]:
        """Pop the member with the smallest (count, last_access) key.

        Entries for ``excluded`` programs (already part of an eviction
        plan) and stale entries are discarded.  Because every key change
        pushes a fresh entry, the first current entry popped is the true
        minimum.
        """
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[2] in excluded:
                continue
            if self._entry_is_current(entry):
                return entry
        return None

    # -- policy ------------------------------------------------------------

    def on_access(self, now: float, program_id: int) -> MembershipChange:
        self._advance_counts(now)
        self._record_access(now, program_id)
        self._last_access[program_id] = now

        if program_id in self._members:
            self._push_entry(program_id)
            return MembershipChange()
        return self._try_admit(now, program_id)

    def _try_admit(self, now: float, program_id: int) -> MembershipChange:
        """Admit ``program_id`` if it outranks enough current members.

        Plans evictions against the true frequency order; commits only if
        the plan frees enough space using victims that rank at or below
        the newcomer, otherwise restores the heap untouched.
        """
        change = MembershipChange()
        footprint = self.context.footprint_of(program_id)
        if footprint > self.context.capacity_bytes:
            return change

        need = footprint - self.free_bytes
        if need <= 0:
            self._admit(program_id)
            self._push_entry(program_id)
            change.admitted.append(program_id)
            return change

        newcomer_key = (self._count(program_id), now)
        plan: List[Tuple[int, float, int]] = []
        planned: Set[int] = set()
        freed = 0.0
        feasible = True
        while freed < need:
            victim = self._pop_min(planned)
            if victim is None:
                feasible = False
                break
            victim_key = (victim[0], victim[1])
            if victim_key <= newcomer_key:
                plan.append(victim)
                planned.add(victim[2])
                freed += self.context.footprint_of(victim[2])
            else:
                # The cheapest member still outranks the newcomer: no
                # admission.  Return the popped entry -- it is current.
                heapq.heappush(self._heap, victim)
                feasible = False
                break

        if not feasible:
            for entry in plan:
                heapq.heappush(self._heap, entry)
            return change

        for _, _, victim_id in plan:
            self._evict(victim_id)
            change.evicted.append(victim_id)
        self._admit(program_id)
        self._push_entry(program_id)
        change.admitted.append(program_id)
        return change
