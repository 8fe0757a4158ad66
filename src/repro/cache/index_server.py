"""The headend index server: request routing and cache orchestration.

Paper section IV-B.1 describes the two delivery flows this module
implements:

* **Cache miss** (Fig 4): the requester asks the index server; the index
  server fetches the segment from the central media server over fiber
  and broadcasts it on the coax; the requester reads it off the wire; if
  the program has been admitted to the cache, a designated peer reads
  the *same broadcast* and stores the segment (no extra traffic).
* **Cache hit** (Fig 5): the index server instructs the peer holding the
  segment to broadcast it; the requester reads it off the wire.  The
  serving peer occupies one of its two channels for the duration.

The index server also fields every session start, feeding the strategy's
popularity model and applying the resulting membership changes to the
physical placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import units
from repro.cache.base import CacheStrategy, MembershipChange
from repro.cache.segments import PlacementMap
from repro.errors import CacheError, CapacityError, PlacementError
from repro.trace.records import Catalog


class DeliveryOutcome:
    """How one segment request was satisfied.

    Returned by :meth:`IndexServer.request_segment`; the engines log
    the integer ``CODE_*`` of :meth:`IndexServer.request_segment_code`
    instead.  Treat instances as immutable; server outcomes carry no
    per-request state and are shared singletons.

    Attributes
    ----------
    source:
        ``"peer"`` (cooperative-cache hit), ``"local"`` (segment already
        on the requester's own box -- no coax traffic), or ``"server"``
        (central media server over fiber).
    busy_miss:
        The segment *was* cached but its holder had no free channel, so
        the server had to serve it (the paper's section V-C miss rule).
    filled:
        A peer captured this broadcast, adding the segment to the cache.
    serving_box:
        User id of the peer that served a hit (``None`` for server
        deliveries).
    """

    __slots__ = ("source", "busy_miss", "filled", "serving_box")

    def __init__(self, source: str, busy_miss: bool = False,
                 filled: bool = False, serving_box: Optional[int] = None) -> None:
        self.source = source
        self.busy_miss = busy_miss
        self.filled = filled
        self.serving_box = serving_box

    @property
    def from_server(self) -> bool:
        """True when the central server supplied the bits."""
        return self.source == "server"

    @property
    def on_coax(self) -> bool:
        """True when the delivery consumed coax broadcast bandwidth."""
        return self.source != "local"

    def _key(self):
        return (self.source, self.busy_miss, self.filled, self.serving_box)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeliveryOutcome):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeliveryOutcome(source={self.source!r}, "
            f"busy_miss={self.busy_miss}, filled={self.filled}, "
            f"serving_box={self.serving_box})"
        )


#: Integer outcome codes returned by :meth:`IndexServer.request_segment_code`.
#: Every engine logs one code per delivery and derives the counters
#: (:meth:`IndexServerStats.add_outcomes`) and meters from the codes in
#: batches, so the per-request path allocates no outcome object and
#: bumps no stats.  Codes from ``CODE_BUSY`` on are server deliveries.
CODE_LOCAL = 0
CODE_PEER = 1
CODE_BUSY = 2
CODE_MISS = 3
CODE_MISS_FILL_SKIP = 4
CODE_MISS_FILLED = 5
N_OUTCOME_CODES = 6

#: code -> ``DeliveryOutcome.source``.
SOURCE_OF_CODE = ("local", "peer", "server", "server", "server", "server")

#: Server outcomes by ``code - CODE_BUSY``: shared singletons, since
#: they carry no per-request payload.
_SERVER_OUTCOMES = (
    DeliveryOutcome("server", busy_miss=True),
    DeliveryOutcome("server"),
    DeliveryOutcome("server"),
    DeliveryOutcome("server", filled=True),
)


@dataclass
class IndexServerStats:
    """Running totals the index server keeps for reporting."""

    sessions: int = 0
    segment_requests: int = 0
    peer_hits: int = 0
    local_hits: int = 0
    server_deliveries: int = 0
    busy_misses: int = 0
    cold_misses: int = 0
    fills: int = 0
    fill_skips: int = 0
    admissions: int = 0
    evictions: int = 0
    placement_failures: int = 0

    def add_outcomes(self, counts: Sequence[int]) -> None:
        """Count deliveries from per-code counts (indexed by ``CODE_*``)."""
        local, peer, busy, miss, skip, filled = counts
        cold = miss + skip + filled
        self.segment_requests += local + peer + busy + cold
        self.local_hits += local
        self.peer_hits += peer
        self.busy_misses += busy
        self.server_deliveries += busy + cold
        self.cold_misses += cold
        self.fill_skips += skip
        self.fills += filled


class IndexServer:
    """Per-neighborhood cache orchestrator.

    The server owns the neighborhood's peers as plain columns: peer
    ``i`` is subscriber ``user_ids[i]`` (the placement map's peer
    index), and the paper's two-channel limit (section V-C)
    is one list of lease end-times per peer.  Leases are swept lazily,
    against the clock of the request that needs a channel -- exact,
    because occupancy matters only at that instant -- so no release
    event is ever scheduled.

    Parameters
    ----------
    neighborhood_id:
        The global id of the coax segment this server manages.
    user_ids:
        The segment's subscribers in peer order (a slice of
        :attr:`~repro.topology.hfc.CablePlant.order`).
    strategy:
        The (already bound) membership policy.
    placement:
        The physical placement map over the neighborhood's peers, one
        per subscriber in ``user_ids`` order.
    catalog:
        Program metadata (lengths drive segment counts).
    max_streams:
        Concurrent channels per peer (default 2, per the paper).
    """

    __slots__ = ("neighborhood_id", "_strategy", "_placement", "_catalog",
                 "_stored", "_segment_counts", "_lengths", "_max_streams",
                 "_leases", "_peer_user", "_user_leases", "stats")

    def __init__(
        self,
        neighborhood_id: int,
        user_ids: Sequence[int],
        strategy: CacheStrategy,
        placement: PlacementMap,
        catalog: Catalog,
        max_streams: int = units.MAX_STREAMS_PER_PEER,
    ) -> None:
        user_ids = tuple(user_ids)
        if placement.n_peers != len(user_ids):
            raise CacheError(
                f"neighborhood {neighborhood_id}: placement "
                f"has {placement.n_peers} peers for {len(user_ids)} users"
            )
        if max_streams < 1:
            raise CapacityError(
                f"max_streams must be at least 1, got {max_streams}")
        self.neighborhood_id = neighborhood_id
        self._strategy = strategy
        self._placement = placement
        self._catalog = catalog
        #: program_id -> (peer per segment, captured flag per segment)
        #: for every placed program.  Membership <=> placement: every
        #: membership change goes through ``_apply_change``, which adds
        #: an entry per placed admission and pops one per eviction, and a
        #: failed placement is force-evicted with no entry.
        self._stored: Dict[int, Tuple[Tuple[int, ...], bytearray]] = {}
        #: Per-program segment counts and lengths: the catalog's shared
        #: tables, built once per catalog, not per neighborhood or (a
        #: ``Program.num_segments`` divmod) per delivery.
        self._segment_counts: List[int] = catalog.segment_counts
        self._lengths: List[float] = catalog.lengths
        self._max_streams = int(max_streams)
        #: Per peer: end times of its leased channels, the viewer's own
        #: playback stream included.
        self._leases: List[List[float]] = [[] for _ in user_ids]
        #: Per peer: its subscriber's user id.
        self._peer_user: Tuple[int, ...] = user_ids
        #: user id -> that subscriber's lease list.
        self._user_leases: Dict[int, List[float]] = dict(
            zip(user_ids, self._leases))
        self.stats = IndexServerStats()

    @property
    def strategy(self) -> CacheStrategy:
        """The membership policy this server consults."""
        return self._strategy

    def playback_leases(self, user_id: int) -> List[float]:
        """The lease-end list of ``user_id``'s own peer.

        The viewer's playback stream is appended here unchecked: the
        index server never denies a subscriber their own session, but
        the lease still holds one of the peer's channels against
        serving and fills.
        """
        leases = self._user_leases.get(user_id)
        if leases is None:
            raise CacheError(
                f"user {user_id} is not in neighborhood "
                f"{self.neighborhood_id}"
            )
        return leases

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------

    def on_session_start(self, now: float, user_id: int, program_id: int) -> None:
        """Feed the popularity model and apply any membership changes."""
        self.stats.sessions += 1
        change = self._strategy.on_access(now, program_id)
        if change.admitted or change.evicted:
            self._apply_change(change)

    def apply_initial_membership(self, change: MembershipChange) -> None:
        """Apply a strategy's bind-time membership (oracle pre-warm)."""
        self._apply_change(change)

    def _apply_change(self, change: MembershipChange) -> None:
        """Apply one decision's deltas to physical placement, batched.

        Evictions are released through one
        :meth:`~repro.cache.segments.PlacementMap.remove_programs` call
        per decision (the placement map hoists its level bookkeeping
        across the whole batch) and stats are bumped once per batch --
        a multi-victim LFU admission or an oracle recompute used to pay
        the full per-program call chain for every delta.
        """
        evicted = change.evicted
        if evicted:
            self._placement.remove_programs(evicted)
            stored = self._stored
            for program_id in evicted:
                stored.pop(program_id, None)
            self.stats.evictions += len(evicted)
        for program_id in change.admitted:
            try:
                count = self._segment_counts[program_id]
                assignment = self._placement.place_program(
                    self._catalog[program_id], count)
                self._stored[program_id] = (assignment, bytearray(
                    b"\x01" * count if self._strategy.instant_fill else count))
                self.stats.admissions += 1
            except PlacementError:
                # Physical placement refused (can only happen if a caller
                # mis-sized capacity).  Roll the membership back so the
                # strategy's accounting matches reality.
                self.stats.placement_failures += 1
                self._strategy.force_evict(program_id)

    # ------------------------------------------------------------------
    # Segment delivery
    # ------------------------------------------------------------------

    def request_segment(
        self,
        now: float,
        user_id: int,
        program_id: int,
        segment_index: int,
        watch_seconds: float,
    ) -> DeliveryOutcome:
        """Serve one segment request, returning how it was delivered.

        ``watch_seconds`` is how long the viewer will actually consume
        this segment (the final segment of an abandoned session is
        partial); streams and bandwidth are charged for exactly that
        long.  The per-request form of :meth:`request_segment_code`,
        which does the routing; this wrapper adds the stats and the
        outcome object.
        """
        code = self.request_segment_code(
            now, user_id, program_id, segment_index, watch_seconds
        )
        counts = [0] * N_OUTCOME_CODES
        counts[code] = 1
        self.stats.add_outcomes(counts)
        if code >= CODE_BUSY:
            return _SERVER_OUTCOMES[code - CODE_BUSY]
        holder = self._stored[program_id][0][segment_index]
        return DeliveryOutcome(SOURCE_OF_CODE[code],
                               serving_box=self._peer_user[holder])

    def request_segment_code(
        self,
        now: float,
        user_id: int,
        program_id: int,
        segment_index: int,
        watch_seconds: float,
    ) -> int:
        """Serve one segment request, returning one ``CODE_*`` integer.

        Performs every state change of a delivery -- channel leases and
        fill captures -- but bumps **no** stats: the engines log one
        code per delivery and derive every counter from the codes in
        batches (``IndexServerStats.add_outcomes``).

        One dict lookup routes the request: a program has a captured
        entry exactly when it is a placed member (membership <=>
        placement, see ``_stored``), so no entry is a plain miss.  A
        captured segment is a hit (the viewer's own disk, or a holder
        with a free channel) or a busy miss.  Otherwise the central
        server broadcasts it (Fig 4), and the program's assigned peer
        captures the broadcast only when the viewer will watch the
        *whole* segment (a partial broadcast is a partial, unusable
        copy) and the peer has a free channel to tune to it.
        """
        entry = self._stored.get(program_id)
        if entry is None:
            # Not placed, so not a member: nothing can hit or fill.
            return CODE_MISS
        assignment, captured = entry
        peer = assignment[segment_index]
        if captured[segment_index]:
            if self._peer_user[peer] == user_id:
                # The viewer's own disk: no broadcast, no channel use.
                return CODE_LOCAL
            # A saturated holder: the paper's rule is that this *is* a miss.
            granted, refused = CODE_PEER, CODE_BUSY
        else:
            # Inlined segment_play_seconds(): every segment holds a full
            # SEGMENT_SECONDS except the last, which holds the remainder
            # -- same floats, minus a catalog lookup and divmod per
            # delivery.
            if segment_index < self._segment_counts[program_id] - 1:
                play_seconds = units.SEGMENT_SECONDS
            else:
                play_seconds = (self._lengths[program_id]
                                - segment_index * units.SEGMENT_SECONDS)
            if watch_seconds + 1e-9 < play_seconds:
                return CODE_MISS_FILL_SKIP
            granted, refused = CODE_MISS_FILLED, CODE_MISS_FILL_SKIP
        if watch_seconds <= 0:
            raise CapacityError(
                f"peer {self._peer_user[peer]}: stream duration must be "
                f"positive, got {watch_seconds}"
            )
        # The holder needs a free channel.  The lease list never holds
        # more than the channel limit plus the viewer's own stream, so
        # an in-place sweep of expired leases beats rebuilding it.
        leases = self._leases[peer]
        if leases:
            kept = 0
            for end in leases:
                if end > now:
                    leases[kept] = end
                    kept += 1
            if kept != len(leases):
                del leases[kept:]
            if kept >= self._max_streams:
                return refused
        leases.append(now + watch_seconds)
        captured[segment_index] = 1
        return granted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stored_segment_count(self, program_id: int) -> int:
        """Segments of ``program_id`` physically captured so far."""
        entry = self._stored.get(program_id)
        return 0 if entry is None else entry[1].count(1)

    def cached_programs(self) -> Set[int]:
        """Programs currently admitted by the strategy."""
        return set(self._strategy.members)
