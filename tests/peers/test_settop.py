"""Set-top box resource accounting: disk and the two-channel limit."""

import pytest

from repro import units
from repro.cache.segments import PlacementMap, segment_bytes
from repro.errors import CapacityError, PlacementError
from repro.peers.settop import SetTopBox
from repro.trace.records import Program

SEG = segment_bytes()


class TestConstruction:
    def test_defaults_match_paper(self):
        box = SetTopBox(0)
        assert box.storage_bytes == units.DEFAULT_PEER_STORAGE_BYTES
        assert box.max_streams == 2

    def test_rejects_negative_storage(self):
        with pytest.raises(CapacityError):
            SetTopBox(0, storage_bytes=-1.0)

    def test_rejects_zero_streams(self):
        with pytest.raises(CapacityError):
            SetTopBox(0, max_streams=0)


class TestStorage:
    """Disk accounting, kept by the placement map that owns the box."""

    @staticmethod
    def owned_box(segments):
        box = SetTopBox(0, storage_bytes=segments * SEG)
        return box, PlacementMap([box])

    def test_reserve_and_free_accounting(self):
        box, placement = self.owned_box(3)
        placement.place_program(Program(7, 300.0))
        assert box.used_bytes == SEG
        assert box.free_bytes == 2 * SEG

    def test_multiple_reservations_same_program_accumulate(self):
        box, placement = self.owned_box(3)
        placement.place_program(Program(7, 600.0))  # two slots, one box
        assert box.used_bytes == 2 * SEG

    def test_release_frees_everything_for_program(self):
        box, placement = self.owned_box(3)
        placement.place_program(Program(7, 600.0))
        placement.place_program(Program(8, 300.0))
        placement.remove_program(7)
        assert box.used_bytes == SEG
        assert not placement.is_placed(7)

    def test_release_unknown_program_is_noop(self):
        box, placement = self.owned_box(3)
        placement.place_program(Program(7, 300.0))
        placement.remove_program(99)
        assert box.used_bytes == SEG

    def test_overcommit_rejected(self):
        box, placement = self.owned_box(3)
        placement.place_program(Program(1, 600.0))
        with pytest.raises(PlacementError):
            placement.place_program(Program(2, 600.0))
        assert box.used_bytes == 2 * SEG

    def test_exact_fill_allowed(self):
        box, placement = self.owned_box(3)
        placement.place_program(Program(1, 900.0))
        assert box.free_bytes == 0.0

    def test_full_box_is_never_charged(self):
        # A slot count that disagrees with the box raises instead of
        # charging bytes the disk does not have.
        box, placement = self.owned_box(1)
        placement.place_program(Program(1, 300.0))
        placement._total_free += 1
        with pytest.raises(CapacityError):
            placement.place_program(Program(2, 300.0))
        assert box.free_bytes == 0.0


class TestStreams:
    def test_two_streams_allowed(self):
        box = SetTopBox(0)
        box.open_stream(0.0, 300.0)
        box.open_stream(0.0, 300.0)
        assert box.active_streams(0.0) == 2

    def test_third_stream_rejected(self):
        box = SetTopBox(0)
        box.open_stream(0.0, 300.0)
        box.open_stream(0.0, 300.0)
        with pytest.raises(CapacityError):
            box.open_stream(0.0, 300.0)

    def test_leases_expire(self):
        box = SetTopBox(0)
        box.open_stream(0.0, 300.0)
        box.open_stream(0.0, 600.0)
        assert box.active_streams(301.0) == 1
        assert box.can_open_stream(301.0)

    def test_lease_active_until_exact_end(self):
        box = SetTopBox(0)
        box.open_stream(0.0, 300.0)
        assert box.active_streams(299.9) == 1
        assert box.active_streams(300.0) == 0

    def test_viewer_override_exceeds_limit(self):
        # Playback streams are never denied (enforce_limit=False).
        box = SetTopBox(0)
        box.open_stream(0.0, 300.0)
        box.open_stream(0.0, 300.0)
        box.open_stream(0.0, 300.0, enforce_limit=False)
        assert box.active_streams(0.0) == 3

    def test_overridden_box_cannot_serve(self):
        box = SetTopBox(0)
        box.open_stream(0.0, 300.0, enforce_limit=False)
        box.open_stream(0.0, 300.0, enforce_limit=False)
        assert not box.can_open_stream(0.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(CapacityError):
            SetTopBox(0).open_stream(0.0, 0.0)

    def test_custom_stream_limit(self):
        box = SetTopBox(0, max_streams=4)
        for _ in range(4):
            box.open_stream(0.0, 60.0)
        assert not box.can_open_stream(0.0)
