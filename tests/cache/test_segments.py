"""Segmentation math, physical placement and the per-peer storage ledger."""

import random

import pytest

from repro import units
from repro.cache.segments import (
    PlacementMap,
    cache_footprint_bytes,
    peer_slots,
    segment_bytes,
    segment_play_seconds,
    usable_capacity_bytes,
)
from repro.errors import CapacityError, PlacementError
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


SEG = segment_bytes()


def peers_with_segments(n_peers, segments_each):
    return [segments_each] * n_peers


class TestPlacementMap:
    def test_places_all_segments(self):
        placement = PlacementMap(peers_with_segments(4, 10))
        program = Program(0, 100 * 60.0)  # 20 segments
        assignment = placement.place_program(program)
        assert len(assignment) == 20
        assert placement.is_placed(0)

    def test_balances_across_peers(self):
        placement = PlacementMap(peers_with_segments(4, 10))
        placement.place_program(Program(0, 100 * 60.0))  # 20 segments
        loads = [placement.used_bytes(peer) / SEG for peer in range(4)]
        assert max(loads) - min(loads) <= 1.0

    def test_holder_lookup(self):
        placement = PlacementMap(peers_with_segments(2, 10))
        program = Program(0, 600.0)
        assignment = placement.place_program(program)
        assert placement.holder_of(0, 0) is assignment[0]
        assert placement.holder_of(0, 1) is assignment[1]

    def test_holder_of_unplaced_raises(self):
        placement = PlacementMap(peers_with_segments(1, 10))
        with pytest.raises(PlacementError):
            placement.holder_of(0, 0)

    def test_holder_of_bad_index_raises(self):
        placement = PlacementMap(peers_with_segments(1, 10))
        placement.place_program(Program(0, 600.0))
        with pytest.raises(PlacementError):
            placement.holder_of(0, 5)

    def test_double_place_rejected(self):
        placement = PlacementMap(peers_with_segments(2, 10))
        placement.place_program(Program(0, 600.0))
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 600.0))

    def test_remove_frees_space(self):
        placement = PlacementMap(peers_with_segments(2, 3))
        placement.place_program(Program(0, 1500.0))  # 5 of 6 slots
        placement.remove_program(0)
        assert [placement.used_bytes(peer) for peer in range(2)] == [0.0, 0.0]
        assert not placement.is_placed(0)

    def test_remove_unplaced_is_noop(self):
        placement = PlacementMap(peers_with_segments(1, 10))
        placement.remove_program(99)

    def test_overfull_placement_fails_atomically(self):
        placement = PlacementMap(peers_with_segments(2, 2))  # 4 slots total
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 1500.0))  # needs 5
        assert [placement.used_bytes(peer) for peer in range(2)] == [0.0, 0.0]
        assert placement.free_slots == 4
        assert not placement.is_placed(0)

    def test_space_reusable_after_failed_placement(self):
        placement = PlacementMap(peers_with_segments(2, 2))
        with pytest.raises(PlacementError):
            placement.place_program(Program(0, 1500.0))
        placement.place_program(Program(1, 1200.0))  # 4 segments fit
        assert placement.is_placed(1)

    def test_fills_to_exact_capacity(self):
        placement = PlacementMap(peers_with_segments(3, 2))  # 6 slots
        placement.place_program(Program(0, 900.0))   # 3
        placement.place_program(Program(1, 900.0))   # 3
        assert placement.placed_programs == 2
        with pytest.raises(PlacementError):
            placement.place_program(Program(2, 300.0))

    def test_peers_rank_by_free_whole_slots(self):
        # 2.5 and 2 segments of disk are both two slots: a tie, so the
        # first-listed peer takes the first segment of each level.
        narrow, wide = peer_slots(2 * SEG), peer_slots(2.5 * SEG)
        assert narrow == wide == 2
        placement = PlacementMap([narrow, wide])
        assignment = placement.place_program(Program(0, 1200.0))
        assert list(assignment) == [0, 1, 0, 1]
        with pytest.raises(PlacementError):
            placement.place_program(Program(1, 300.0))

    def test_empty_peer_list_rejected(self):
        with pytest.raises(PlacementError):
            PlacementMap([])

    def test_negative_slot_count_rejected(self):
        with pytest.raises(CapacityError):
            PlacementMap([2, -1])


class TestPeerStorage:
    """One peer's disk, accounted by the placement map that owns it."""

    @staticmethod
    def owned_peer(segments):
        return PlacementMap([peer_slots(segments * SEG)])

    def test_defaults_match_paper(self):
        # The paper's 10 GB ceiling holds 33 whole five-minute segments.
        assert peer_slots(units.DEFAULT_PEER_STORAGE_BYTES) == 33

    def test_rejects_negative_storage(self):
        with pytest.raises(CapacityError):
            peer_slots(-1.0)

    def test_reserve_and_free_accounting(self):
        placement = self.owned_peer(3)
        placement.place_program(Program(7, 300.0))
        assert placement.used_bytes(0) == SEG
        assert placement.free_slots == 2

    def test_multiple_reservations_same_program_accumulate(self):
        placement = self.owned_peer(3)
        placement.place_program(Program(7, 600.0))  # two slots, one peer
        assert placement.used_bytes(0) == 2 * SEG

    def test_release_frees_everything_for_program(self):
        placement = self.owned_peer(3)
        placement.place_program(Program(7, 600.0))
        placement.place_program(Program(8, 300.0))
        placement.remove_program(7)
        assert placement.used_bytes(0) == SEG
        assert not placement.is_placed(7)

    def test_release_unknown_program_is_noop(self):
        placement = self.owned_peer(3)
        placement.place_program(Program(7, 300.0))
        placement.remove_program(99)
        assert placement.used_bytes(0) == SEG

    def test_overcommit_rejected(self):
        placement = self.owned_peer(3)
        placement.place_program(Program(1, 600.0))
        with pytest.raises(PlacementError):
            placement.place_program(Program(2, 600.0))
        assert placement.used_bytes(0) == 2 * SEG

    def test_exact_fill_allowed(self):
        placement = self.owned_peer(3)
        placement.place_program(Program(1, 900.0))
        assert placement.used_bytes(0) == 3 * SEG
        assert placement.free_slots == 0

    def test_full_peer_is_never_charged(self):
        # A slot count that disagrees with the peers raises instead of
        # charging a slot the disk does not have.
        placement = self.owned_peer(1)
        placement.place_program(Program(1, 300.0))
        placement._total_free += 1
        with pytest.raises(CapacityError):
            placement.place_program(Program(2, 300.0))
        assert placement.used_bytes(0) == SEG


class TestFailedPlacementHasNoSideEffects:
    """An over-capacity call fails before it touches any state."""

    def test_later_placements_match_a_map_that_never_failed(self):
        for seed in range(500):
            self._replay_beside_twin(seed)

    @staticmethod
    def _replay_beside_twin(seed):
        rng = random.Random(seed)
        slots = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
        probed = PlacementMap(slots)
        twin = PlacementMap(slots)
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
            assert got == want, seed
            assert probed._free == twin._free, seed
            placed[pid] = segments
            free -= segments


class TestStorageLedger:
    """The map is the only storage ledger: peer bytes follow its slots."""

    #: The golden-digest storage families: the paper's 10 GB ceiling,
    #: the small-storage churn shape, and a disk ending in a partial slot.
    STORAGES = (10e9, 2e9, 2.5 * segment_bytes())

    @staticmethod
    def assert_ledger(placement, storage, placed):
        capacity = peer_slots(storage)
        slots = [0] * placement.n_peers
        for pid in placed:
            for peer in placement.holders(pid):
                slots[peer] += 1
        for peer, used in enumerate(slots):
            assert placement.used_bytes(peer) == used * SEG
            assert 0.0 <= placement.used_bytes(peer) <= storage
            assert placement._free[peer] == capacity - used
        assert sum(placement._free) == placement._total_free

    @pytest.mark.parametrize("storage", STORAGES, ids=("10GB", "2GB", "2.5seg"))
    def test_random_place_remove_sequences_keep_the_ledger(self, storage):
        repeated = 0
        for seed in range(40):
            rng = random.Random(seed)
            placement = PlacementMap(
                [peer_slots(storage)] * rng.randint(1, 6))
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
                self.assert_ledger(placement, storage, placed)
        assert repeated  # the multi-slot path ran

    def test_repeated_box_place_and_remove(self):
        storage = 4 * SEG
        placement = PlacementMap(peers_with_segments(2, 4))
        first = placement.place_program(Program(0, 900.0))  # 3 segments
        second = placement.place_program(Program(1, 1500.0))  # 5 segments
        assert first == (0, 1, 0)
        assert second == (1, 0, 1, 0, 1)
        self.assert_ledger(placement, storage, (0, 1))
        placement.remove_program(1)
        self.assert_ledger(placement, storage, (0,))
        assert [placement.used_bytes(peer) for peer in range(2)] == [
            2 * SEG, SEG]
        # Peer 1 rose to level 3 and peer 0 to level 2: the next program
        # starts on peer 1, which then queues behind peer 0 at level 2.
        third = placement.place_program(Program(2, 1500.0))
        assert third == (1, 0, 1, 0, 1)
        placement.remove_programs((0, 2))
        assert [placement.used_bytes(peer) for peer in range(2)] == [0.0, 0.0]
        self.assert_ledger(placement, storage, ())

    def test_release_below_zero_bytes_raises(self):
        placement = PlacementMap([2])
        placement.place_program(Program(0, 600.0))
        placement._free[0] = 1  # written behind the map's back
        with pytest.raises(CapacityError):
            placement.remove_program(0)
