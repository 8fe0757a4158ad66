"""Runtime admission layer for the live headend drain.

Built from the frozen specs in :mod:`repro.live.specs`, the
:class:`AdmissionController` sits between the arrival-order request
stream and the index server: every session start passes through
:meth:`AdmissionController.decide` and comes back with an
:data:`ADMIT` / :data:`DEFER` / :data:`DENY` verdict (deferrals carry a
retry-after); every segment delivery reports back through
:meth:`AdmissionController.on_delivery` so the fairness scheduler's
virtual counters -- and the per-user served/denied accounting the
exhibit metrics read -- track consumed coax bits and peer-storage
fills.

Determinism: all state is plain dict/deque bookkeeping updated in
event order, so a live run is exactly as reproducible as the offline
replay it wraps.  A controller built from all-default (no-op) specs
never blocks and never perturbs the simulation -- the property the
bit-identity test pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from repro import units
from repro.live.specs import FairnessSpec, ThrottleSpec

#: Verdict actions.  Plain strings (they end up in reports and logs).
ADMIT = "admit"
DEFER = "defer"
DENY = "deny"


@dataclass(frozen=True)
class Verdict:
    """One admission decision: the action plus retry-after accounting."""

    action: str
    retry_after: float = 0.0
    reason: str = ""


class SlidingWindowThrottle:
    """Per-user and per-program session budgets over trailing windows."""

    __slots__ = ("spec", "_user_hits", "_program_hits")

    def __init__(self, spec: ThrottleSpec) -> None:
        self.spec = spec
        self._user_hits: Dict[int, Deque[float]] = {}
        self._program_hits: Dict[int, Deque[float]] = {}

    @staticmethod
    def _retry(hits: Dict[int, Deque[float]], key: int, now: float,
               budget: Optional[int], window: float) -> float:
        """Seconds until ``key`` is back under budget (0.0 = admissible)."""
        if budget is None:
            return 0.0
        queue = hits.get(key)
        if queue is None:
            return 0.0
        floor = now - window
        while queue and queue[0] <= floor:
            queue.popleft()
        if len(queue) < budget:
            return 0.0
        # The oldest surviving start is strictly newer than ``floor``,
        # so the wait below is strictly positive.
        return queue[0] + window - now

    def check(self, now: float, user_id: int, program_id: int) -> float:
        """Retry-after for this request; ``0.0`` means within budget."""
        spec = self.spec
        user_wait = self._retry(self._user_hits, user_id, now,
                                spec.user_budget, spec.user_window_seconds)
        program_wait = self._retry(self._program_hits, program_id, now,
                                   spec.program_budget,
                                   spec.program_window_seconds)
        return max(user_wait, program_wait)

    def commit(self, now: float, user_id: int, program_id: int) -> None:
        """Record an admitted start against both budgets."""
        spec = self.spec
        if spec.user_budget is not None:
            self._user_hits.setdefault(user_id, deque()).append(now)
        if spec.program_budget is not None:
            self._program_hits.setdefault(program_id, deque()).append(now)


class VirtualCounterScheduler:
    """Weighted virtual-time fairness over coax bits and storage fills.

    Each user's virtual counter accumulates the weighted stream-seconds
    served on their behalf; each neighborhood's virtual clock is the
    equal share of its total.  Admission requires the requester's
    counter to lead their neighborhood's clock by at most
    ``spec.lead_seconds``.
    """

    __slots__ = ("spec", "_vt", "_neighborhood_cost", "_neighborhood_users")

    def __init__(self, spec: FairnessSpec,
                 neighborhood_users: Sequence[int]) -> None:
        self.spec = spec
        self._vt: Dict[int, float] = {}
        self._neighborhood_cost: List[float] = [0.0] * len(neighborhood_users)
        self._neighborhood_users = [max(1, n) for n in neighborhood_users]

    def check(self, now: float, user_id: int, neighborhood: int) -> float:
        """Retry-after for this request; ``0.0`` means within the lead."""
        lead = self.spec.lead_seconds
        if lead is None:
            return 0.0
        clock = (self._neighborhood_cost[neighborhood]
                 / self._neighborhood_users[neighborhood])
        if self._vt.get(user_id, 0.0) - clock > lead:
            return self.spec.retry_seconds
        return 0.0

    def charge(self, user_id: int, neighborhood: int,
               stream_seconds: float) -> None:
        """Add weighted cost to the user counter and neighborhood clock."""
        self._vt[user_id] = self._vt.get(user_id, 0.0) + stream_seconds
        self._neighborhood_cost[neighborhood] += stream_seconds


@dataclass
class LiveReport:
    """Per-user served/denied/deferred accounting of one live run.

    All dicts are keyed by user id and hold only users with activity.
    ``user_coax_bits`` counts bits that crossed the neighborhood coax
    for the user (peer and server deliveries alike);  ``user_fills``
    counts the peer-storage fills the user's requests triggered --
    the two resources the fairness scheduler arbitrates.
    """

    admitted: int = 0
    denied: int = 0
    deferrals: int = 0
    user_requests: Dict[int, int] = field(default_factory=dict)
    user_admitted: Dict[int, int] = field(default_factory=dict)
    user_denied: Dict[int, int] = field(default_factory=dict)
    user_deferrals: Dict[int, int] = field(default_factory=dict)
    user_coax_bits: Dict[int, float] = field(default_factory=dict)
    user_fills: Dict[int, int] = field(default_factory=dict)
    user_served_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Distinct session requests (admitted + denied)."""
        return self.admitted + self.denied

    def total_coax_bits(self) -> float:
        return sum(self.user_coax_bits.values())

    def total_fills(self) -> int:
        return sum(self.user_fills.values())

    def coax_share(self, user_ids: Iterable[int]) -> float:
        """Fraction of coax bits consumed by ``user_ids`` (0.0 if none)."""
        total = self.total_coax_bits()
        if total <= 0.0:
            return 0.0
        bits = self.user_coax_bits
        return sum(bits.get(uid, 0.0) for uid in user_ids) / total

    def fill_share(self, user_ids: Iterable[int]) -> float:
        """Fraction of peer-storage fills triggered by ``user_ids``."""
        total = self.total_fills()
        if total <= 0:
            return 0.0
        fills = self.user_fills
        return sum(fills.get(uid, 0) for uid in user_ids) / total

    def admit_rate(self, user_ids: Optional[Iterable[int]] = None) -> float:
        """Admitted / requested, overall or for ``user_ids`` (1.0 if idle)."""
        if user_ids is None:
            total = self.requests
            granted = self.admitted
        else:
            requests = self.user_requests
            admitted = self.user_admitted
            ids = list(user_ids)
            total = sum(requests.get(uid, 0) for uid in ids)
            granted = sum(admitted.get(uid, 0) for uid in ids)
        return granted / total if total else 1.0

    def served_seconds(self, user_ids: Iterable[int]) -> float:
        """Stream-seconds delivered (any source) to ``user_ids``."""
        served = self.user_served_seconds
        return sum(served.get(uid, 0.0) for uid in user_ids)


class AdmissionController:
    """The composed admission layer one live run drains through.

    Policies are optional and composable: a request must pass every
    configured policy; the largest retry-after among the blocking ones
    drives the deferral.  ``max_defers`` is taken from the blocking
    policies (the strictest -- smallest -- bound wins).
    """

    __slots__ = ("throttle_spec", "fairness_spec", "_throttle", "_fairness",
                 "report")

    def __init__(self, throttle: Optional[ThrottleSpec] = None,
                 fairness: Optional[FairnessSpec] = None) -> None:
        self.throttle_spec = throttle
        self.fairness_spec = fairness
        self._throttle: Optional[SlidingWindowThrottle] = None
        self._fairness: Optional[VirtualCounterScheduler] = None
        self.report = LiveReport()

    def bind(self, neighborhood_users: Sequence[int]) -> None:
        """Build runtime state for a plant of the given neighborhood sizes.

        Called by ``CableVoDSystem.run(admission=...)`` once the plant
        layout is known; a controller is single-run (its report
        accumulates one drain).
        """
        if self.throttle_spec is not None:
            self._throttle = SlidingWindowThrottle(self.throttle_spec)
        if self.fairness_spec is not None:
            self._fairness = VirtualCounterScheduler(self.fairness_spec,
                                                     neighborhood_users)

    # ------------------------------------------------------------------
    # The decision path
    # ------------------------------------------------------------------

    def decide(self, now: float, user_id: int, program_id: int,
               neighborhood: int, attempts: int,
               deadline: float = float("inf")) -> Verdict:
        """Verdict for a session-start request on its ``attempts``-th try.

        ``deadline`` is the end of the viewer's own session window: a
        deferral whose retry would land past it is a walk-away and is
        denied outright instead of scheduled.
        """
        retry = 0.0
        allowed_defers: Optional[int] = None
        reason = ""
        if self._throttle is not None:
            wait = self._throttle.check(now, user_id, program_id)
            if wait > 0.0:
                retry = wait
                allowed_defers = self._throttle.spec.max_defers
                reason = "throttle"
        if self._fairness is not None:
            wait = self._fairness.check(now, user_id, neighborhood)
            if wait > 0.0:
                defers = self._fairness.spec.max_defers
                if allowed_defers is None or defers < allowed_defers:
                    allowed_defers = defers
                if wait > retry:
                    retry = wait
                reason = "fairness" if not reason else "throttle+fairness"
        report = self.report
        if retry == 0.0:
            if self._throttle is not None:
                self._throttle.commit(now, user_id, program_id)
            report.admitted += 1
            _bump(report.user_requests, user_id, attempts == 0)
            report.user_admitted[user_id] = (
                report.user_admitted.get(user_id, 0) + 1)
            return _ADMIT_VERDICT
        if attempts >= allowed_defers or now + retry >= deadline:
            report.denied += 1
            _bump(report.user_requests, user_id, attempts == 0)
            report.user_denied[user_id] = (
                report.user_denied.get(user_id, 0) + 1)
            return Verdict(DENY, 0.0, reason)
        report.deferrals += 1
        _bump(report.user_requests, user_id, attempts == 0)
        report.user_deferrals[user_id] = (
            report.user_deferrals.get(user_id, 0) + 1)
        return Verdict(DEFER, retry, reason)

    # ------------------------------------------------------------------
    # Delivery feedback (the system's ``_deliver_segment`` hook)
    # ------------------------------------------------------------------

    def on_delivery(self, user_id: int, neighborhood: int, source: str,
                    filled: bool, watch_seconds: float) -> None:
        """Account one segment delivery against the requesting user."""
        report = self.report
        report.user_served_seconds[user_id] = (
            report.user_served_seconds.get(user_id, 0.0) + watch_seconds)
        cost = 0.0
        fairness = self._fairness
        if source != "local":
            report.user_coax_bits[user_id] = (
                report.user_coax_bits.get(user_id, 0.0)
                + watch_seconds * units.STREAM_RATE_BPS)
            if fairness is not None:
                cost += fairness.spec.coax_weight * watch_seconds
        if filled:
            report.user_fills[user_id] = report.user_fills.get(user_id, 0) + 1
            if fairness is not None:
                cost += fairness.spec.fill_weight * units.SEGMENT_SECONDS
        if fairness is not None and cost > 0.0 and fairness.spec.lead_seconds is not None:
            fairness.charge(user_id, neighborhood, cost)


def _bump(requests: Dict[int, int], user_id: int, first_attempt: bool) -> None:
    """Count the user's request once, on its first attempt only."""
    if first_attempt:
        requests[user_id] = requests.get(user_id, 0) + 1


_ADMIT_VERDICT = Verdict(ADMIT)
