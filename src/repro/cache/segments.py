"""Program segmentation and physical placement on set-top peers.

Paper section IV-B.1: "Programs are divided into 5 minute segments and
distributed among a collection of peers.  When the index server
determines that a program should be in the cache, it locates a
collection of peers to store the segments ...  Unlike many structured
peer-to-peer systems, placement is not probabilistic.  Instead, the
index server places data to balance load, and keeps track of where each
program is located."

Placement policy: each segment is assigned to the peer with the most
free whole-segment slots (ties go to the peer that reached that count
first), which both balances storage *and* spreads a program's segments
across many peers so concurrent viewers at different offsets rarely
collide on the two-stream limit.

Capacity is accounted in whole segments: a peer contributing 10 GB holds
``floor(10 GB / segment_bytes)`` segments.  Deriving the neighborhood's
cache capacity the same way (:func:`usable_capacity_bytes`) means a
membership decision that fits in bytes always fits physically -- no
fragmentation surprises mid-simulation.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import repeat
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.errors import CapacityError, PlacementError
from repro.trace.records import Program


def segment_bytes(rate_bps: float = units.STREAM_RATE_BPS,
                  segment_seconds: float = units.SEGMENT_SECONDS) -> float:
    """Storage footprint of one full segment."""
    return rate_bps * segment_seconds / units.BITS_PER_BYTE


def peer_slots(storage_bytes: float) -> int:
    """Whole segments a peer contributing ``storage_bytes`` holds.

    With a 1e-6 byte tolerance, so a disk sized in segments holds that
    many.

    Raises
    ------
    CapacityError
        If ``storage_bytes`` is negative.
    """
    if storage_bytes < 0:
        raise CapacityError(
            f"peer storage must be non-negative, got {storage_bytes}")
    return int((storage_bytes + 1e-6) // segment_bytes())


def cache_footprint_bytes(program: Program) -> float:
    """Bytes the cache charges for a whole program (whole segments).

    The trailing partial segment is rounded up to a full slot, mirroring
    how the placement map reserves space.
    """
    return program.num_segments * segment_bytes()


def usable_capacity_bytes(storage_bytes_per_peer: float, n_peers: int) -> float:
    """Whole-segment cache capacity of ``n_peers`` equal contributions."""
    if storage_bytes_per_peer < 0 or n_peers < 0:
        raise PlacementError(
            f"capacity arguments must be non-negative, got "
            f"{storage_bytes_per_peer} x {n_peers}"
        )
    slots_per_peer = int(storage_bytes_per_peer // segment_bytes())
    return slots_per_peer * segment_bytes() * n_peers


def segment_play_seconds(program: Program, segment_index: int) -> float:
    """Playback seconds contained in one segment of ``program``.

    Every segment holds :data:`~repro.units.SEGMENT_SECONDS` except the
    final one, which holds the remainder.
    """
    if not 0 <= segment_index < program.num_segments:
        raise PlacementError(
            f"segment {segment_index} out of range for program "
            f"{program.program_id} ({program.num_segments} segments)"
        )
    start = segment_index * units.SEGMENT_SECONDS
    return min(units.SEGMENT_SECONDS, program.length_seconds - start)


class PlacementMap:
    """Tracks which peer holds each segment of each cached program.

    The index server calls :meth:`place_program` when a strategy admits a
    program (reserving space immediately -- the decision is binding) and
    :meth:`remove_programs` on eviction.  Whether a given segment's bytes
    have actually been captured off a broadcast yet is tracked separately
    by the index server; this map is purely *where they belong*.

    Peers are dense indices ``0 .. len(slot_counts) - 1`` (the index
    server's order: its neighborhood's ``user_ids``), and
    ``slot_counts[peer]`` is the whole segments that peer's disk holds
    (:func:`peer_slots`).  The map is the only storage ledger: it keeps
    one list of free slots per peer, and a peer's bytes in use are
    derived from it (:meth:`used_bytes`).  The free count is also the
    peer's *level*, and the map files each peer in one FIFO per level.
    Each segment goes to the peer at the front of the highest non-empty
    level, which then drops one level and joins the back of that queue;
    a release appends the peer at the back of the level it rises to.

    Queue entries are never withdrawn.  An entry whose level no longer
    matches its peer is stale: when it reaches a front it moves to the
    back of the peer's current level.  An old entry whose peer has
    returned to its level is valid again and keeps its place.  Within a
    level, queue order is insertion order, so every choice is the one a
    heap keyed by ``(-free slots, insertion counter)`` with lazy
    staleness checks would make; the digests in
    ``tests/cache/placement_golden.json`` pin this order.
    """

    __slots__ = ("_capacity", "_free", "_total_free", "_levels", "_top",
                 "_assignments")

    def __init__(self, slot_counts: Sequence[int]) -> None:
        if not slot_counts:
            raise PlacementError("placement requires at least one peer")
        if min(slot_counts) < 0:
            raise CapacityError(
                f"peer slot counts must be non-negative, got {min(slot_counts)}")
        self._capacity: Tuple[int, ...] = tuple(slot_counts)
        #: Per peer: free whole-segment slots, which is also its level.
        self._free: List[int] = list(slot_counts)
        self._total_free = sum(self._free)
        #: Highest level that may be non-empty; every level above is empty.
        self._top = max(self._free)
        #: One FIFO of peers per level.
        self._levels: List[Deque[int]] = [
            deque() for _ in range(self._top + 1)
        ]
        for peer, level in enumerate(self._free):
            self._levels[level].append(peer)
        #: program_id -> tuple of peers, one per segment index.
        self._assignments: Dict[int, Tuple[int, ...]] = {}

    @property
    def placed_programs(self) -> int:
        """Number of programs currently placed."""
        return len(self._assignments)

    @property
    def n_peers(self) -> int:
        """Number of peers the map places on."""
        return len(self._free)

    @property
    def free_slots(self) -> int:
        """Free whole-segment slots over every peer."""
        return self._total_free

    def used_bytes(self, peer: int) -> float:
        """Disk bytes holding cached segments on ``peer``.

        One :func:`segment_bytes` per assigned slot.  The product is
        exact: ``segment_bytes()`` is an integer-valued float, so it
        equals the sum of one charge per slot.
        """
        return (self._capacity[peer] - self._free[peer]) * segment_bytes()

    def holder_of(self, program_id: int, segment_index: int) -> int:
        """The peer assigned segment ``segment_index`` of ``program_id``.

        Raises
        ------
        PlacementError
            If the program is not placed or the index is out of range.
        """
        assignment = self._assignments.get(program_id)
        if assignment is None:
            raise PlacementError(f"program {program_id} is not placed")
        if not 0 <= segment_index < len(assignment):
            raise PlacementError(
                f"program {program_id} has {len(assignment)} segments, "
                f"requested index {segment_index}"
            )
        return assignment[segment_index]

    def is_placed(self, program_id: int) -> bool:
        """Whether ``program_id`` currently has a placement."""
        return program_id in self._assignments

    def holders(self, program_id: int) -> Optional[Tuple[int, ...]]:
        """Per-segment peer assignment tuple, or ``None`` if not placed.

        The tuple :meth:`place_program` returned; index servers keep it
        beside their captured flags instead of calling this per request.
        """
        return self._assignments.get(program_id)

    def place_program(self, program: Program,
                      num_segments: Optional[int] = None) -> Tuple[int, ...]:
        """Assign every segment of ``program`` to a least-loaded peer.

        All-or-nothing: either every segment is reserved or the placement
        fails with no side effects.  ``num_segments`` is
        ``program.num_segments``, passed by callers that already hold it
        (the index server reads it from the catalog's table).

        Raises
        ------
        PlacementError
            If the program is already placed or the peers have fewer free
            segment slots than it has segments (only possible when
            membership capacity accounting disagrees with physical
            capacity -- a caller bug).
        CapacityError
            If the map counts more free slots than its peers have.
        """
        program_id = program.program_id
        if program_id in self._assignments:
            raise PlacementError(f"program {program_id} already placed")
        needed = program.num_segments if num_segments is None else num_segments
        if needed > self._total_free:
            raise PlacementError(
                f"program {program_id} needs {needed} segment slots, "
                f"only {self._total_free} free"
            )
        levels = self._levels
        free = self._free
        top = self._top
        chosen: List[int] = []
        for _ in range(needed):
            # Walk down past empty levels; the slot check above means a
            # peer with a free slot still has a valid entry below.
            queue = levels[top]
            while True:
                if not queue:
                    top -= 1
                    if top <= 0:
                        raise CapacityError(f"program {program_id}: the map "
                                            "counts slots no peer has free")
                    queue = levels[top]
                    continue
                peer = queue.popleft()
                level = free[peer]
                if level == top:
                    break
                levels[level].append(peer)  # stale: re-queue where it is
            free[peer] = level - 1
            levels[level - 1].append(peer)
            chosen.append(peer)
        self._top = top
        self._total_free -= needed
        assignment = tuple(chosen)
        self._assignments[program_id] = assignment
        return assignment

    def remove_program(self, program_id: int) -> None:
        """Release every reservation held for ``program_id``.

        Idempotent: removing an unplaced program is a no-op, because
        strategies may evict a program whose placement previously failed.
        """
        self.remove_programs((program_id,))

    def remove_programs(self, program_ids: Iterable[int]) -> None:
        """Release a whole decision's evictions in one batched call.

        Performs exactly the per-program releases of
        :meth:`remove_program` in order -- each peer rejoins the back of
        its new level in the order it first appeared in the program's
        assignment, so placement ties, and therefore every downstream
        delivery, are bit-identical to the serial calls.  Multi-victim
        admissions and oracle recomputes hit this with dozens of
        programs per decision.  A release that would lift a peer above
        its slot count raises :class:`CapacityError`.
        """
        assignments = self._assignments
        levels = self._levels
        free = self._free
        capacity = self._capacity
        top = self._top
        released = 0
        for program_id in program_ids:
            assignment = assignments.pop(program_id, None)
            if assignment is None:
                continue
            released += len(assignment)
            # Distinct peers take one slot each.  Otherwise Counter keeps
            # first-appearance order, so peers rejoin their levels in
            # assignment order on every run.
            releases: Iterable[Tuple[int, int]] = (
                zip(assignment, repeat(1))
                if len(set(assignment)) == len(assignment)
                else Counter(assignment).items())
            for peer, slots in releases:
                level = free[peer] + slots
                if level > capacity[peer]:
                    raise CapacityError(f"peer {peer}: more free slots than "
                                        f"its disk releasing {program_id}")
                free[peer] = level
                levels[level].append(peer)
                if level > top:
                    top = level
        self._top = top
        self._total_free += released
