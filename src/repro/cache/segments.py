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
from repro.peers.settop import SetTopBox
from repro.trace.records import Program


def segment_bytes(rate_bps: float = units.STREAM_RATE_BPS,
                  segment_seconds: float = units.SEGMENT_SECONDS) -> float:
    """Storage footprint of one full segment."""
    return rate_bps * segment_seconds / units.BITS_PER_BYTE


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

    The map is the only storage ledger: it owns its boxes' storage and
    keeps each box's :attr:`~repro.peers.settop.SetTopBox.used_bytes`
    at one :func:`segment_bytes` per assigned slot.  It counts each
    box's free whole-segment slots -- its *level* -- and files the box
    in one FIFO per level.  Each segment goes to the box at the front
    of the highest non-empty level, which then drops one level and joins
    the back of that queue; a release appends the box at the back of the
    level it rises to.  (For peers with equal disks, as the simulator
    builds them, more free slots is more free bytes.)

    Queue entries are never withdrawn.  An entry whose level no longer
    matches its box is stale: when it reaches a front it moves to the
    back of the box's current level.  An old entry whose box has
    returned to its level is valid again and keeps its place.  Within a
    level, queue order is insertion order, so every choice is the one a
    heap keyed by ``(-free slots, insertion counter)`` with lazy
    staleness checks would make; the digests in
    ``tests/cache/placement_golden.json`` pin this order.
    """

    __slots__ = ("_free", "_total_free", "_levels", "_top", "_assignments")

    def __init__(self, boxes: Sequence[SetTopBox]) -> None:
        if not boxes:
            raise PlacementError("placement requires at least one peer")
        per_segment = segment_bytes()
        #: Per box: free whole-segment slots, which is also its level
        #: (with a 1e-6 byte tolerance for disks sized in segments).
        self._free: Dict[SetTopBox, int] = {
            box: int((box.free_bytes + 1e-6) // per_segment) for box in boxes
        }
        self._total_free = sum(self._free.values())
        #: Highest level that may be non-empty; every level above is empty.
        self._top = max(self._free.values())
        #: One FIFO of boxes per level.
        self._levels: List[Deque[SetTopBox]] = [
            deque() for _ in range(self._top + 1)
        ]
        for box in boxes:
            self._levels[self._free[box]].append(box)
        #: program_id -> tuple of boxes, one per segment index.
        self._assignments: Dict[int, Tuple[SetTopBox, ...]] = {}

    @property
    def placed_programs(self) -> int:
        """Number of programs currently placed."""
        return len(self._assignments)

    def holder_of(self, program_id: int, segment_index: int) -> SetTopBox:
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

    def holders(self, program_id: int) -> Optional[Tuple[SetTopBox, ...]]:
        """Per-segment peer assignment tuple, or ``None`` if not placed.

        The tuple :meth:`place_program` returned; index servers keep it
        beside their captured flags instead of calling this per request.
        """
        return self._assignments.get(program_id)

    def place_program(self, program: Program,
                      num_segments: Optional[int] = None) -> Tuple[SetTopBox, ...]:
        """Assign every segment of ``program`` to a least-loaded peer.

        All-or-nothing: either every segment is reserved or the placement
        fails with no side effects.  Each chosen box is charged one
        :func:`segment_bytes` as it takes a slot.  ``num_segments`` is
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
            If the map counts more free slots than its boxes have.
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
        per_segment = segment_bytes()
        chosen: List[SetTopBox] = []
        for _ in range(needed):
            # Walk down past empty levels; the slot check above means a
            # box with a free slot still has a valid entry below.
            queue = levels[top]
            while True:
                if not queue:
                    top -= 1
                    if top <= 0:
                        raise CapacityError(f"program {program_id}: the map "
                                            "counts slots no box has free")
                    queue = levels[top]
                    continue
                box = queue.popleft()
                level = free[box]
                if level == top:
                    break
                levels[level].append(box)  # stale: re-queue where it is
            free[box] = level - 1
            levels[level - 1].append(box)
            box.used_bytes += per_segment
            chosen.append(box)
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
        :meth:`remove_program` in order -- each box rejoins the back of
        its new level in the order it first appeared in the program's
        assignment, so placement ties, and therefore every downstream
        delivery, are bit-identical to the serial calls.  Multi-victim
        admissions and oracle recomputes hit this with dozens of
        programs per decision.  A release that would drive a box's
        ``used_bytes`` below zero raises :class:`CapacityError`.
        """
        assignments = self._assignments
        levels = self._levels
        free = self._free
        top = self._top
        per_segment = segment_bytes()
        released = 0
        for program_id in program_ids:
            assignment = assignments.pop(program_id, None)
            if assignment is None:
                continue
            released += len(assignment)
            # Distinct boxes take one slot each.  Otherwise Counter keeps
            # first-appearance order, so boxes rejoin their levels in
            # assignment order on every run.
            box_slots: Iterable[Tuple[SetTopBox, int]] = (
                zip(assignment, repeat(1))
                if len(set(assignment)) == len(assignment)
                else Counter(assignment).items())
            for box, slots in box_slots:
                used = box.used_bytes - slots * per_segment
                if used < 0:
                    raise CapacityError(f"box {box.box_id}: negative used "
                                        f"bytes releasing {program_id}")
                box.used_bytes = used
                level = free[box] + slots
                free[box] = level
                levels[level].append(box)
                if level > top:
                    top = level
        self._top = top
        self._total_free += released
