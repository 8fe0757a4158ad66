"""Index server: hit/miss flows, fills, busy peers, membership plumbing."""

import pytest

from repro.cache.base import NullStrategy, StrategyContext
from repro.cache.factory import spec_from_name
from repro.cache.index_server import IndexServer
from repro.cache.lru import LRUStrategy
from repro.cache.oracle import OracleStrategy
from repro.cache.policies import policy_names
from repro.cache.segments import PlacementMap, cache_footprint_bytes, segment_bytes
from repro.core.config import SimulationConfig
from repro.core.system import CableVoDSystem
from repro.errors import CacheError, PlacementError
from repro.peers.settop import SetTopBox
from repro.topology.hfc import Neighborhood
from repro.trace.records import Catalog, Program
from repro.trace.synthetic import PowerInfoModel
from repro.trace.workload import Workload, cached_workload_trace


def build_server(strategy=None, n_users=3, segments_per_peer=10,
                 program_lengths=(600.0, 600.0)):
    catalog = Catalog([
        Program(i, length) for i, length in enumerate(program_lengths)
    ])
    neighborhood = Neighborhood(0, tuple(range(n_users)))
    boxes = {
        uid: SetTopBox(uid, storage_bytes=segments_per_peer * segment_bytes())
        for uid in neighborhood.user_ids
    }
    placement = PlacementMap(list(boxes.values()))
    strategy = strategy or LRUStrategy()
    initial = strategy.bind(
        StrategyContext(
            neighborhood_id=0,
            capacity_bytes=n_users * segments_per_peer * segment_bytes(),
            footprint_of=lambda pid: cache_footprint_bytes(catalog[pid]),
        )
    )
    server = IndexServer(neighborhood, boxes, strategy, placement, catalog)
    server.apply_initial_membership(initial)
    return server, boxes


class TestMissAndFill:
    def test_first_request_is_cold_miss(self):
        server, _ = build_server()
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 300.0)
        assert outcome.from_server
        assert outcome.on_coax
        assert not outcome.busy_miss

    def test_full_watch_fills_segment(self):
        server, _ = build_server()
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 300.0)
        assert outcome.filled
        assert server.stored_segment_count(0) == 1

    def test_partial_watch_does_not_fill(self):
        server, _ = build_server()
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 120.0)
        assert outcome.from_server
        assert not outcome.filled
        assert server.stats.fill_skips == 1

    def test_unadmitted_program_never_fills(self):
        server, _ = build_server(strategy=NullStrategy())
        server.on_session_start(0.0, 0, 0)
        outcome = server.request_segment(0.0, 0, 0, 0, 300.0)
        assert not outcome.filled
        assert server.cached_programs() == set()


class TestHit:
    def _warm(self, server, user=0):
        server.on_session_start(0.0, user, 0)
        server.request_segment(0.0, user, 0, 0, 300.0)

    def test_second_request_hits_peer(self):
        server, _ = build_server()
        self._warm(server, user=0)
        outcome = server.request_segment(1000.0, 1, 0, 0, 300.0)
        assert outcome.source in ("peer", "local")
        assert not outcome.from_server

    def test_own_disk_hit_skips_coax(self):
        server, boxes = build_server(n_users=1)
        self._warm(server, user=0)
        outcome = server.request_segment(1000.0, 0, 0, 0, 300.0)
        assert outcome.source == "local"
        assert not outcome.on_coax
        assert server.stats.local_hits == 1

    def test_peer_hit_occupies_holder_stream(self):
        server, boxes = build_server()
        self._warm(server, user=0)
        outcome = server.request_segment(1000.0, 1, 0, 0, 300.0)
        if outcome.source == "peer":
            holder = boxes[outcome.serving_box]
            assert holder.active_streams(1000.0) >= 1

    def test_busy_holder_triggers_server_miss(self):
        server, boxes = build_server()
        self._warm(server, user=0)
        first = server.request_segment(1000.0, 1, 0, 0, 300.0)
        assert first.source in ("peer", "local")
        holder = boxes[first.serving_box]
        # Saturate the holder's remaining channel.
        while holder.can_open_stream(1000.0):
            holder.open_stream(1000.0, 300.0)
        outcome = server.request_segment(1000.0, 2, 0, 0, 300.0)
        if first.source == "peer":
            assert outcome.busy_miss
            assert outcome.from_server


class TestMembershipPlumbing:
    def test_eviction_clears_placement_and_storage(self):
        # Capacity of exactly one 2-segment program forces eviction.
        strategy = LRUStrategy()
        server, _ = build_server(strategy=strategy, n_users=1,
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
        server, _ = build_server(strategy=oracle)
        assert server.stored_segment_count(0) == 2
        outcome = server.request_segment(100.0, 1, 0, 0, 300.0)
        assert not outcome.from_server

    def test_unknown_user_rejected(self):
        server, _ = build_server()
        with pytest.raises(CacheError):
            server.box_of(99)

    def test_missing_boxes_rejected(self):
        neighborhood = Neighborhood(0, (0, 1))
        catalog = Catalog([Program(0, 600.0)])
        boxes = {0: SetTopBox(0)}
        with pytest.raises(CacheError):
            IndexServer(neighborhood, boxes, NullStrategy(),
                        PlacementMap(list(boxes.values())), catalog)

    def test_stats_accumulate(self):
        server, _ = build_server()
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
