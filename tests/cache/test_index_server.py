"""Index server: hit/miss flows, fills, channel leases, membership plumbing."""

import pytest

from repro.cache import index_server as idx
from repro.cache.base import NO_CHANGE, NullStrategy, StrategyContext
from repro.cache.factory import spec_from_name
from repro.cache.index_server import IndexServer
from repro.cache.lru import LRUStrategy
from repro.cache.oracle import OracleStrategy
from repro.cache.policies import (
    AlwaysAdmit,
    LRUEviction,
    PolicyStrategy,
    ThresholdAdmission,
    policy_names,
)
from repro.cache.segments import PlacementMap, cache_footprint_bytes, segment_bytes
from repro.core.config import SimulationConfig
from repro.core.system import CableVoDSystem
from repro.errors import CacheError, CapacityError, PlacementError
from repro.trace.records import Catalog, Program
from repro.trace.synthetic import PowerInfoModel
from repro.trace.workload import Workload, cached_workload_trace

from tests.cache.helpers import bind


def build_server(strategy=None, n_users=3, segments_per_peer=10,
                 program_lengths=(600.0, 600.0), **server_args):
    catalog = Catalog([
        Program(i, length) for i, length in enumerate(program_lengths)
    ])
    placement = PlacementMap([segments_per_peer] * n_users)
    strategy = strategy or LRUStrategy()
    initial = strategy.bind(
        StrategyContext(
            neighborhood_id=0,
            capacity_bytes=n_users * segments_per_peer * segment_bytes(),
            footprint_of=lambda pid: cache_footprint_bytes(catalog[pid]),
        )
    )
    server = IndexServer(0, range(n_users), strategy, placement, catalog,
                         **server_args)
    server.apply_initial_membership(initial)
    return server


class TestMissAndFill:
    def test_first_request_is_cold_miss(self):
        server = build_server()
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 300.0)
        assert outcome.from_server
        assert outcome.on_coax
        assert not outcome.busy_miss

    def test_full_watch_fills_segment(self):
        server = build_server()
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 300.0)
        assert outcome.filled
        assert server.stored_segment_count(0) == 1

    def test_partial_watch_does_not_fill(self):
        server = build_server()
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 120.0)
        assert outcome.from_server
        assert not outcome.filled
        assert server.stats.fill_skips == 1

    def test_unadmitted_program_never_fills(self):
        server = build_server(strategy=NullStrategy())
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 300.0)
        assert not outcome.filled
        assert server.cached_programs() == set()


class TestHit:
    def _warm(self, server, user=0):
        server.on_session_start(0.0, user, 0)
        server.request_segment(0.0, user, 0, 0, 300.0)

    def test_second_request_hits_peer(self):
        server = build_server()
        self._warm(server, user=0)
        outcome = server.request_segment(1000.0, 1, 0, 0, 300.0)
        assert outcome.source in ("peer", "local")
        assert not outcome.from_server

    def test_own_disk_hit_skips_coax(self):
        server = build_server(n_users=1)
        self._warm(server, user=0)
        outcome = server.request_segment(1000.0, 0, 0, 0, 300.0)
        assert outcome.source == "local"
        assert not outcome.on_coax
        assert server.stats.local_hits == 1

    def test_peer_hit_occupies_holder_stream(self):
        server = build_server()
        self._warm(server, user=0)
        outcome = server.request_segment(1000.0, 1, 0, 0, 300.0)
        if outcome.source == "peer":
            holder = server.playback_leases(outcome.serving_box)
            assert [end for end in holder if end > 1000.0] == [1300.0]

    def test_busy_holder_triggers_server_miss(self):
        server = build_server()
        self._warm(server, user=0)
        first = server.request_segment(1000.0, 1, 0, 0, 300.0)
        assert first.source in ("peer", "local")
        # Saturate the holder's remaining channel.
        server.playback_leases(first.serving_box).append(1300.0)
        outcome = server.request_segment(1000.0, 2, 0, 0, 300.0)
        if first.source == "peer":
            assert outcome.busy_miss
            assert outcome.from_server


class TestMembershipPlumbing:
    def test_eviction_clears_placement_and_storage(self):
        # Capacity of exactly one 2-segment program forces eviction.
        strategy = LRUStrategy()
        server = build_server(strategy=strategy, n_users=1,
                                 segments_per_peer=2)
        server.on_session_start(0.0, 0, 0)
        server.request_segment(0.0, 0, 0, 0, 300.0)
        assert server.stored_segment_count(0) == 1
        server.on_session_start(10.0, 0, 1)  # displaces program 0
        assert server.stored_segment_count(0) == 0
        assert server.cached_programs() == {1}
        assert server.stats.evictions == 1

    def test_oracle_prewarm_is_instantly_stored(self):
        oracle = OracleStrategy({0: [100.0, 200.0]}, window_days=1.0)
        server = build_server(strategy=oracle)
        assert server.stored_segment_count(0) == 2
        outcome = server.request_segment(100.0, 1, 0, 0, 300.0)
        assert not outcome.from_server

    def test_unknown_user_rejected(self):
        server = build_server()
        with pytest.raises(CacheError):
            server.playback_leases(99)

    def test_missing_boxes_rejected(self):
        # A placement with fewer peers than the neighborhood has users.
        catalog = Catalog([Program(0, 600.0)])
        with pytest.raises(CacheError):
            IndexServer(0, (0, 1), NullStrategy(), PlacementMap([33]),
                        catalog)

    def test_stats_accumulate(self):
        server = build_server()
        server.on_session_start(0.0, 0, 0)
        server.request_segment(0.0, 0, 0, 0, 300.0)
        server.request_segment(300.0, 0, 0, 1, 300.0)
        assert server.stats.sessions == 1
        assert server.stats.segment_requests == 2
        assert server.stats.server_deliveries == 2


class TestCapturedEntries:
    """A captured entry exists exactly for each placed member.

    ``request_segment_code`` routes on one ``_stored`` lookup, which is
    only sound while entry <=> member <=> placed holds after every
    membership change -- admissions, evictions, the oracle's instant
    fill and the rollback of a refused placement.
    """

    MODEL = PowerInfoModel(n_users=240, n_programs=40, days=2.0, seed=21)
    CONFIG = dict(neighborhood_size=60, per_peer_storage_gb=1.0,
                  warmup_days=0.0)

    @staticmethod
    def _assert_consistent(server):
        members = set(server.strategy.members)
        assert set(server._stored) == members
        placement = server._placement
        assert placement.placed_programs == len(members)
        for program_id, (assignment, captured) in server._stored.items():
            assert placement.holders(program_id) is assignment
            assert len(captured) == len(assignment)
            assert set(captured) <= {0, 1}

    def _replay(self, monkeypatch, policy, refuse_every=0):
        checked = [0]
        start = IndexServer.on_session_start

        def checked_start(server, now, user_id, program_id):
            start(server, now, user_id, program_id)
            self._assert_consistent(server)
            checked[0] += 1

        monkeypatch.setattr(IndexServer, "on_session_start", checked_start)
        if refuse_every:
            place = PlacementMap.place_program
            calls = [0]

            def refusing_place(placement, program, num_segments=None):
                calls[0] += 1
                if calls[0] % refuse_every == 0:
                    raise PlacementError("refused for the test")
                return place(placement, program, num_segments)

            monkeypatch.setattr(PlacementMap, "place_program", refusing_place)
        trace = cached_workload_trace(Workload(model=self.MODEL))
        config = SimulationConfig(strategy=spec_from_name(policy),
                                  **self.CONFIG)
        system = CableVoDSystem(trace, config, engine="bucket")
        result = system.run()
        for server in system.index_servers:
            self._assert_consistent(server)
        assert checked[0] == result.counters.sessions
        return result

    @pytest.mark.parametrize("policy", policy_names())
    def test_every_policy(self, monkeypatch, policy):
        counters = self._replay(monkeypatch, policy).counters
        if policy != "none":
            assert counters.admissions > 0 and counters.evictions > 0

    @pytest.mark.parametrize("policy", ["lfu", "oracle"])
    def test_refused_placements_roll_back(self, monkeypatch, policy):
        result = self._replay(monkeypatch, policy, refuse_every=3)
        assert result.counters.placement_failures > 0


class TestChannels:
    """The paper's two-channel limit, kept as per-peer lease lists.

    The one segment of program 0 sits on peer 0 (user 0), captured by a
    fill at t=0 whose lease ended at t=300.  Users 1 and 2 then request
    it from t=1000 on, each hit leasing one of the holder's channels.
    """

    T = 1000.0

    @staticmethod
    def holder_server(**server_args):
        server = build_server(program_lengths=(300.0,), **server_args)
        server.on_session_start(0.0, 1, 0)
        assert (server.request_segment_code(0.0, 1, 0, 0, 300.0)
                == idx.CODE_MISS_FILLED)
        assert server._placement.holders(0) == (0,)
        return server

    @staticmethod
    def request(server, now, watch=300.0, user=1):
        return server.request_segment_code(now, user, 0, 0, watch)

    def test_two_streams_allowed(self):
        server = self.holder_server()
        assert self.request(server, self.T) == idx.CODE_PEER
        assert self.request(server, self.T, user=2) == idx.CODE_PEER
        assert server.playback_leases(0) == [self.T + 300.0] * 2

    def test_third_stream_rejected(self):
        server = self.holder_server()
        for _ in range(2):
            assert self.request(server, self.T) == idx.CODE_PEER
        assert self.request(server, self.T) == idx.CODE_BUSY
        assert len(server.playback_leases(0)) == 2

    def test_leases_expire(self):
        server = self.holder_server()
        self.request(server, self.T, 300.0)
        self.request(server, self.T, 600.0)
        assert self.request(server, self.T + 301.0) == idx.CODE_PEER
        assert server.playback_leases(0) == [self.T + 600.0, self.T + 601.0]

    def test_lease_active_until_exact_end(self):
        server = self.holder_server()
        for _ in range(2):
            self.request(server, self.T, 300.0)
        assert self.request(server, self.T + 299.9) == idx.CODE_BUSY
        assert self.request(server, self.T + 300.0) == idx.CODE_PEER

    def test_viewer_override_exceeds_limit(self):
        # A playback lease is never refused, even past the limit.
        server = self.holder_server()
        for _ in range(2):
            self.request(server, self.T)
        server.playback_leases(0).append(self.T + 300.0)
        assert len(server.playback_leases(0)) == 3
        assert self.request(server, self.T) == idx.CODE_BUSY

    def test_overridden_box_cannot_serve(self):
        # Playback leases occupy channels: a holder watching two
        # streams of its own can neither serve nor fill.
        server = self.holder_server()
        server.playback_leases(0).extend([self.T + 300.0] * 2)
        assert self.request(server, self.T) == idx.CODE_BUSY
        server._stored[0][1][0] = 0  # uncaptured again: the next read fills
        assert self.request(server, self.T) == idx.CODE_MISS_FILL_SKIP

    def test_own_disk_needs_no_channel(self):
        server = self.holder_server()
        server.playback_leases(0).extend([self.T + 300.0] * 2)
        assert self.request(server, self.T, user=0) == idx.CODE_LOCAL

    def test_nonpositive_duration_rejected(self):
        server = self.holder_server()
        with pytest.raises(CapacityError):
            self.request(server, self.T, 0.0)
        with pytest.raises(CapacityError):
            self.request(server, self.T, -1.0)

    def test_custom_stream_limit(self):
        server = self.holder_server(max_streams=4)
        for _ in range(4):
            assert self.request(server, self.T, 60.0) == idx.CODE_PEER
        assert self.request(server, self.T) == idx.CODE_BUSY

    def test_rejects_zero_streams(self):
        with pytest.raises(CapacityError):
            build_server(max_streams=0)


class TestNoOpAccess:
    """A session start that changes no membership allocates no delta."""

    @staticmethod
    def bound(admission=None, capacity=300.0, sizes=None):
        strategy = PolicyStrategy(admission or AlwaysAdmit(), LRUEviction())
        bind(strategy, capacity=capacity, sizes=sizes)
        return strategy

    def test_member_touch_returns_the_shared_change(self):
        strategy = self.bound()
        admitted = strategy.on_access(0.0, 1)
        assert admitted.admitted == [1] and admitted is not NO_CHANGE
        assert strategy.on_access(1.0, 1) is NO_CHANGE

    def test_vetoed_admission_returns_the_shared_change(self):
        strategy = self.bound(ThresholdAdmission(min_accesses=2))
        assert strategy.on_access(0.0, 1) is NO_CHANGE
        assert strategy.on_access(1.0, 1).admitted == [1]

    def test_oversized_admission_returns_the_shared_change(self):
        strategy = self.bound(sizes={7: 301.0})
        assert strategy.on_access(0.0, 7) is NO_CHANGE
        assert not strategy.members

    def test_the_shared_change_cannot_grow(self):
        assert NO_CHANGE.empty
        for field in (NO_CHANGE.admitted, NO_CHANGE.evicted):
            with pytest.raises(AttributeError):
                field.append(1)
        assert NO_CHANGE.admitted == () and NO_CHANGE.evicted == ()

    def test_no_op_starts_skip_apply_change(self, monkeypatch):
        applied = []
        apply_change = IndexServer._apply_change

        def counted(server, change):
            applied.append(change)
            apply_change(server, change)

        monkeypatch.setattr(IndexServer, "_apply_change", counted)
        server = build_server(
            strategy=PolicyStrategy(AlwaysAdmit(), LRUEviction()))
        applied.clear()  # the bind-time membership
        server.on_session_start(0.0, 0, 0)  # admits program 0
        assert len(applied) == 1
        server.on_session_start(1.0, 1, 0)  # a member touch
        server.on_session_start(2.0, 2, 0)
        assert len(applied) == 1
        assert server.stats.sessions == 3
