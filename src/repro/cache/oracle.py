"""Oracle cache membership: perfect knowledge of future demand.

Paper section VI-A: "We benchmark both methods against an Oracle method,
which caches the files that will be used the most frequently in the next
three days.  This final algorithm is impossible to implement, and is
presented as an example of ideal cache performance."

The oracle is constructed with the neighborhood's complete future access
schedule (the trace itself, filtered to local users).  Periodically it
re-derives the ideal membership: rank programs by access count over the
next ``window_days`` and greedily fill the cache in rank order.

Recomputes are *incremental*: the strategy keeps the per-program counts
of the previous window and, when the window slides from ``t0`` to
``t1``, walks only the events leaving ``(t0, t1]`` and entering
``(t0 + W, t1 + W]`` on a global time-sorted event list.  Counts are
integers and the slide uses the same ``bisect_right`` boundaries as a
full scan, so ``count(t1) = count(t0) - left + entered`` is exact --
the incremental and full recomputes produce identical rankings (pinned
by the bit-identity test), while the per-recompute cost drops from
O(programs x log window) to O(events slid + programs ranked).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.cache.base import NO_CHANGE, CacheStrategy, MembershipChange
from repro.errors import ConfigurationError


class OracleStrategy(CacheStrategy):
    """Future-knowledge cache policy (the paper's ideal benchmark).

    Parameters
    ----------
    future_accesses:
        Mapping from program id to the *sorted* list of session start
        times that will occur in this neighborhood.
    window_days:
        Look-ahead horizon (the paper uses three days).
    recompute_hours:
        How often the ideal membership is re-derived.  The paper does not
        specify; 6 hours keeps membership continuously near-ideal while
        amortizing the ranking cost.
    """

    name = "oracle"
    instant_fill = True

    __slots__ = ("_futures", "_window_seconds", "_recompute_seconds",
                 "_next_recompute", "_event_times", "_event_pids",
                 "_counts", "_counts_now")

    def __init__(
        self,
        future_accesses: Dict[int, Sequence[float]],
        window_days: float = 3.0,
        recompute_hours: float = 6.0,
    ) -> None:
        super().__init__()
        if window_days <= 0:
            raise ConfigurationError(f"window_days must be positive, got {window_days}")
        if recompute_hours <= 0:
            raise ConfigurationError(
                f"recompute_hours must be positive, got {recompute_hours}"
            )
        self._futures: Dict[int, List[float]] = {
            pid: sorted(times) for pid, times in future_accesses.items() if times
        }
        self._window_seconds = window_days * units.SECONDS_PER_DAY
        self._recompute_seconds = recompute_hours * units.SECONDS_PER_HOUR
        self._next_recompute = 0.0
        # Global time-sorted event list backing the incremental slide.
        # Ties sort by (time, pid); only the slice boundaries matter, so
        # tie order never affects the resulting counts.
        events = sorted(
            (time, pid)
            for pid, times in self._futures.items()
            for time in times
        )
        self._event_times: List[float] = [time for time, _ in events]
        self._event_pids: List[int] = [pid for _, pid in events]
        #: Window counts as of ``_counts_now`` (None until first derive).
        self._counts: Dict[int, int] = {}
        self._counts_now: Optional[float] = None

    def _on_bind(self) -> MembershipChange:
        """Pre-warm: derive the ideal membership for the opening window."""
        return self._recompute(0.0)

    def future_count(self, now: float, program_id: int) -> int:
        """Accesses to ``program_id`` in ``(now, now + window]``."""
        times = self._futures.get(program_id)
        if not times:
            return 0
        lo = bisect_right(times, now)
        hi = bisect_right(times, now + self._window_seconds)
        return hi - lo

    def full_window_counts(self, now: float) -> Dict[int, int]:
        """Per-program counts over ``(now, now + window]``, from scratch.

        The reference the incremental slide must match exactly; the
        equivalence test drives both and asserts identity.
        """
        return {
            program_id: self.future_count(now, program_id)
            for program_id in self._futures
        }

    def window_counts(self, now: float) -> Dict[int, int]:
        """Per-program counts over ``(now, now + window]``, incrementally.

        The first call (and any rewind, which forward simulation never
        produces) derives the counts from scratch; later calls slide
        the window from the previous ``now``: every event in
        ``(t0, t1]`` left the window, every event in
        ``(t0 + W, t1 + W]`` entered it.  Both slices use the same
        ``bisect_right`` boundaries the full scan uses and the updates
        are integer, so the slide is exact, not approximate.
        """
        t0 = self._counts_now
        if t0 is None or now < t0:
            self._counts = self.full_window_counts(now)
        elif now > t0:
            counts = self._counts
            times = self._event_times
            pids = self._event_pids
            window = self._window_seconds
            for i in range(bisect_right(times, t0), bisect_right(times, now)):
                counts[pids[i]] -= 1
            for i in range(bisect_right(times, t0 + window),
                           bisect_right(times, now + window)):
                counts[pids[i]] += 1
        self._counts_now = now
        return self._counts

    def _recompute(self, now: float) -> MembershipChange:
        ranking: List[Tuple[int, int]] = []
        for program_id, count in self.window_counts(now).items():
            if count > 0:
                ranking.append((-count, program_id))
        ranking.sort()

        capacity = self.context.capacity_bytes
        target: set[int] = set()
        used = 0.0
        for negative_count, program_id in ranking:
            footprint = self.context.footprint_of(program_id)
            if used + footprint <= capacity:
                target.add(program_id)
                used += footprint
        # Retain current members that still fit even when they fall out
        # of the ranking: evicting from a non-full cache can only hurt,
        # and an ideal policy would never do it.
        for program_id in sorted(self._members - target):
            footprint = self.context.footprint_of(program_id)
            if used + footprint <= capacity:
                target.add(program_id)
                used += footprint

        change = MembershipChange()
        for program_id in sorted(self._members - target):
            self._evict(program_id)
            change.evicted.append(program_id)
        for program_id in sorted(target - self._members):
            self._admit(program_id)
            change.admitted.append(program_id)
        self._next_recompute = now + self._recompute_seconds
        return change

    def on_access(self, now: float, program_id: int) -> MembershipChange:
        if now >= self._next_recompute:
            return self._recompute(now)
        return NO_CHANGE
