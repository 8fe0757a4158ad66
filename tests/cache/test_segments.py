"""Segmentation math and physical placement."""

import random

import pytest

from repro import units
from repro.cache.segments import (
    PlacementMap,
    cache_footprint_bytes,
    segment_bytes,
    segment_play_seconds,
    usable_capacity_bytes,
)
from repro.errors import CapacityError, PlacementError
from repro.peers.settop import SetTopBox
from repro.trace.records import Program


class TestSegmentMath:
    def test_segment_bytes_is_five_minutes_of_stream(self):
        assert segment_bytes() == pytest.approx(8.06e6 * 300 / 8)

    def test_footprint_rounds_up_to_whole_segments(self):
        program = Program(0, 301.0)  # 2 segments
        assert cache_footprint_bytes(program) == pytest.approx(2 * segment_bytes())

    def test_usable_capacity_floors_per_peer(self):
        seg = segment_bytes()
        # 2.5 segments of storage per peer -> 2 usable.
        assert usable_capacity_bytes(2.5 * seg, 10) == pytest.approx(20 * seg)

    def test_usable_capacity_zero_for_tiny_disks(self):
        assert usable_capacity_bytes(1.0, 100) == 0.0

    def test_usable_capacity_rejects_negative(self):
        with pytest.raises(PlacementError):
            usable_capacity_bytes(-1.0, 10)

    def test_segment_play_seconds_full_and_partial(self):
        program = Program(0, 700.0)  # 300 + 300 + 100
        assert segment_play_seconds(program, 0) == 300.0
        assert segment_play_seconds(program, 2) == pytest.approx(100.0)

    def test_segment_play_seconds_bounds(self):
        program = Program(0, 700.0)
        with pytest.raises(PlacementError):
            segment_play_seconds(program, 3)
        with pytest.raises(PlacementError):
            segment_play_seconds(program, -1)


def boxes_with_segments(n_boxes, segments_each):
    return [
        SetTopBox(i, storage_bytes=segments_each * segment_bytes())
        for i in range(n_boxes)
    ]


class TestPlacementMap:
    def test_places_all_segments(self):
        placement = PlacementMap(boxes_with_segments(4, 10))
        program = Program(0, 100 * 60.0)  # 20 segments
        assignment = placement.place_program(program)
        assert len(assignment) == 20
        assert placement.is_placed(0)

    def test_balances_across_peers(self):
        boxes = boxes_with_segments(4, 10)
        placement = PlacementMap(boxes)
        placement.place_program(Program(0, 100 * 60.0))  # 20 segments
        loads = [box.used_bytes / segment_bytes() for box in boxes]
        assert max(loads) - min(loads) <= 1.0

    def test_holder_lookup(self):
        placement = PlacementMap(boxes_with_segments(2, 10))
        program = Program(0, 600.0)
        assignment = placement.place_program(program)
        assert placement.holder_of(0, 0) is assignment[0]
        assert placement.holder_of(0, 1) is assignment[1]

    def test_holder_of_unplaced_raises(self):
        placement = PlacementMap(boxes_with_segments(1, 10))
        with pytest.raises(PlacementError):
            placement.holder_of(0, 0)

    def test_holder_of_bad_index_raises(self):
        placement = PlacementMap(boxes_with_segments(1, 10))
        placement.place_program(Program(0, 600.0))
        with pytest.raises(PlacementError):
            placement.holder_of(0, 5)

    def test_double_place_rejected(self):
        placement = PlacementMap(boxes_with_segments(2, 10))
        placement.place_program(Program(0, 600.0))
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 600.0))

    def test_remove_frees_space(self):
        boxes = boxes_with_segments(2, 3)
        placement = PlacementMap(boxes)
        placement.place_program(Program(0, 1500.0))  # 5 of 6 slots
        placement.remove_program(0)
        assert all(box.used_bytes == 0.0 for box in boxes)
        assert not placement.is_placed(0)

    def test_remove_unplaced_is_noop(self):
        placement = PlacementMap(boxes_with_segments(1, 10))
        placement.remove_program(99)

    def test_overfull_placement_fails_atomically(self):
        boxes = boxes_with_segments(2, 2)  # 4 slots total
        placement = PlacementMap(boxes)
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 1500.0))  # needs 5
        assert all(box.used_bytes == 0.0 for box in boxes)
        assert not placement.is_placed(0)

    def test_space_reusable_after_failed_placement(self):
        boxes = boxes_with_segments(2, 2)
        placement = PlacementMap(boxes)
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 1500.0))
        placement.place_program(Program(1, 1200.0))  # 4 segments fit
        assert placement.is_placed(1)

    def test_fills_to_exact_capacity(self):
        boxes = boxes_with_segments(3, 2)  # 6 slots
        placement = PlacementMap(boxes)
        placement.place_program(Program(0, 900.0))   # 3
        placement.place_program(Program(1, 900.0))   # 3
        assert placement.placed_programs == 2
        with pytest.raises(PlacementError):
            placement.place_program(Program(2, 300.0))

    def test_peers_rank_by_free_whole_slots(self):
        # 2.5 and 2 segments of disk are both two slots: a tie, so the
        # first-listed box takes the first segment of each level.
        narrow = SetTopBox(0, storage_bytes=2 * segment_bytes())
        wide = SetTopBox(1, storage_bytes=2.5 * segment_bytes())
        placement = PlacementMap([narrow, wide])
        assignment = placement.place_program(Program(0, 1200.0))
        assert [box.box_id for box in assignment] == [0, 1, 0, 1]
        with pytest.raises(PlacementError):
            placement.place_program(Program(1, 300.0))

    def test_empty_peer_list_rejected(self):
        with pytest.raises(PlacementError):
            PlacementMap([])


class TestFailedPlacementHasNoSideEffects:
    """An over-capacity call fails before it touches any state."""

    def test_later_placements_match_a_map_that_never_failed(self):
        for seed in range(500):
            self._replay_beside_twin(seed)

    @staticmethod
    def _replay_beside_twin(seed):
        rng = random.Random(seed)
        slots = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
        probed_boxes = [SetTopBox(i, storage_bytes=n * segment_bytes())
                        for i, n in enumerate(slots)]
        twin_boxes = [SetTopBox(i, storage_bytes=n * segment_bytes())
                      for i, n in enumerate(slots)]
        probed = PlacementMap(probed_boxes)
        twin = PlacementMap(twin_boxes)
        free = sum(slots)
        placed = {}
        for pid in range(60):
            if placed and rng.random() < 0.4:
                victim = rng.choice(sorted(placed))
                free += placed.pop(victim)
                probed.remove_programs((victim,))
                twin.remove_programs((victim,))
                continue
            if rng.random() < 0.3:
                # Over capacity: only the probed map sees the call.
                with pytest.raises(PlacementError):
                    probed.place_program(Program(10_000 + pid, (free + 1) * 300.0))
            if free == 0:
                continue
            segments = rng.randint(1, free)
            program = Program(pid, segments * 300.0)
            got = probed.place_program(program)  # fits, so must not raise
            want = twin.place_program(program)
            assert [b.box_id for b in got] == [b.box_id for b in want], seed
            assert ([b.used_bytes for b in probed_boxes]
                    == [b.used_bytes for b in twin_boxes]), seed
            placed[pid] = segments
            free -= segments


class TestStorageLedger:
    """The map is the only storage ledger: box bytes follow its slots."""

    #: The golden-digest storage families: the paper's 10 GB ceiling,
    #: the small-storage churn shape, and a disk ending in a partial slot.
    STORAGES = (10e9, 2e9, 2.5 * segment_bytes())

    @staticmethod
    def assert_ledger(placement, boxes, placed):
        seg = segment_bytes()
        slots = dict.fromkeys(boxes, 0)
        for pid in placed:
            for box in placement.holders(pid):
                slots[box] += 1
        for box in boxes:
            assert box.used_bytes == slots[box] * seg
            assert 0.0 <= box.used_bytes <= box.storage_bytes
            assert placement._free[box] == int((box.free_bytes + 1e-6) // seg)
        assert sum(placement._free.values()) == placement._total_free

    @pytest.mark.parametrize("storage", STORAGES, ids=("10GB", "2GB", "2.5seg"))
    def test_random_place_remove_sequences_keep_the_ledger(self, storage):
        repeated = 0
        for seed in range(40):
            rng = random.Random(seed)
            boxes = [SetTopBox(i, storage_bytes=storage)
                     for i in range(rng.randint(1, 6))]
            placement = PlacementMap(boxes)
            free = placement._total_free
            placed = {}
            for pid in range(80):
                if placed and rng.random() < 0.35:
                    victims = rng.sample(sorted(placed),
                                         rng.randint(1, min(3, len(placed))))
                    victims.append(10_000 + pid)  # unplaced: a no-op
                    placement.remove_programs(victims)
                    for victim in victims[:-1]:
                        free += placed.pop(victim)
                elif rng.random() < 0.2:
                    with pytest.raises(PlacementError):
                        placement.place_program(
                            Program(pid, (free + 1) * 300.0))
                elif free:
                    segments = rng.randint(1, min(free, 40))
                    partial = rng.choice((0.0, 120.0))
                    assignment = placement.place_program(
                        Program(pid, segments * 300.0 - partial))
                    repeated += len(set(assignment)) < len(assignment)
                    placed[pid] = segments
                    free -= segments
                self.assert_ledger(placement, boxes, placed)
        assert repeated  # the multi-slot path ran

    def test_repeated_box_place_and_remove(self):
        boxes = boxes_with_segments(2, 4)
        placement = PlacementMap(boxes)
        first = placement.place_program(Program(0, 900.0))  # 3 segments
        second = placement.place_program(Program(1, 1500.0))  # 5 segments
        assert [box.box_id for box in first] == [0, 1, 0]
        assert [box.box_id for box in second] == [1, 0, 1, 0, 1]
        self.assert_ledger(placement, boxes, (0, 1))
        placement.remove_program(1)
        self.assert_ledger(placement, boxes, (0,))
        assert [box.used_bytes for box in boxes] == [
            2 * segment_bytes(), segment_bytes()]
        # Box 1 rose to level 3 and box 0 to level 2: the next program
        # starts on box 1, which then queues behind box 0 at level 2.
        third = placement.place_program(Program(2, 1500.0))
        assert [box.box_id for box in third] == [1, 0, 1, 0, 1]
        placement.remove_programs((0, 2))
        assert all(box.used_bytes == 0.0 for box in boxes)
        self.assert_ledger(placement, boxes, ())

    def test_release_below_zero_bytes_raises(self):
        box = SetTopBox(0, storage_bytes=2 * segment_bytes())
        placement = PlacementMap([box])
        placement.place_program(Program(0, 600.0))
        box.used_bytes = segment_bytes()  # written behind the map's back
        with pytest.raises(CapacityError):
            placement.remove_program(0)
