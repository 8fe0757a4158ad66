"""Live drain properties: no-op bit-identity and admission direction.

The live headend mode is only admissible because switching it on
without an active policy changes *nothing*: ``run(admission=...)``
with ``admission=None`` -- or a controller built from all-default
(no-op) specs -- must be byte-for-byte identical to the offline
``bucket`` engine for every registered cache strategy, on both the
preloaded trace and a chunked trace stream.  With an *active* policy
the direction is pinned instead: abusers lose share, everyone else does
not pay for it, and the drain is the same whether the trace is
materialized or streamed in chunks.
"""

from __future__ import annotations

import pytest

from bench.checks import result_digest
from repro.cache.factory import spec_from_name
from repro.cache.policies import policy_names
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.core.system import CableVoDSystem
from repro.live import AdmissionController, FairnessSpec, ThrottleSpec
from repro.trace.streaming import open_trace_stream
from repro.trace.synthetic import (
    PowerInfoModel,
    abusive_user_ids,
    generate_trace,
)


@pytest.fixture(scope="module")
def abusive_model():
    return PowerInfoModel(n_users=240, n_programs=48, days=2.0, seed=17,
                          abusive_fraction=0.1, abusive_rate_x=5.0)


@pytest.fixture(scope="module")
def abusive_trace(abusive_model):
    return generate_trace(abusive_model)


def _config(strategy="lfu"):
    return SimulationConfig(neighborhood_size=60, warmup_days=0.5,
                            strategy=spec_from_name(strategy))


def assert_identical(a, b):
    """Byte-for-byte equality of everything the paper reports."""
    assert a.counters == b.counters
    assert a.events_processed == b.events_processed
    assert a.server_meter.buckets() == b.server_meter.buckets()
    assert a.total_meter.buckets() == b.total_meter.buckets()
    assert set(a.coax_meters) == set(b.coax_meters)
    for key in a.coax_meters:
        assert a.coax_meters[key].buckets() == b.coax_meters[key].buckets()
    for key in a.upstream_meters:
        assert a.upstream_meters[key].buckets() == b.upstream_meters[key].buckets()


def _active_controller():
    return AdmissionController(
        throttle=ThrottleSpec(user_budget=4, user_window_seconds=86400.0),
        fairness=FairnessSpec(lead_seconds=14400.0, fill_weight=2.0),
    )


def _noop_controller():
    # All-default specs: unlimited windows, unlimited lead.  The
    # bit-identity contract covers this controller, not just None.
    return AdmissionController(throttle=ThrottleSpec(),
                               fairness=FairnessSpec())


class TestNoopBitIdentity:
    """ISSUE property: no-op live == offline bucket, every strategy."""

    @pytest.mark.parametrize("policy", policy_names())
    def test_every_registered_policy(self, abusive_trace, policy):
        config = _config(policy)
        offline = run_simulation(abusive_trace, config, engine="bucket")
        live = CableVoDSystem(abusive_trace, config).run(
            admission=_noop_controller())
        assert_identical(offline, live)
        report = live.live
        assert report is not None
        assert report.denied == 0
        assert report.deferrals == 0
        assert report.admitted == len(abusive_trace)

    def test_admission_none_is_bit_identical(self, tiny_trace):
        config = _config()
        offline = run_simulation(tiny_trace, config, engine="bucket")
        live = CableVoDSystem(tiny_trace, config).run(admission=None)
        assert_identical(offline, live)
        assert live.live is None  # no controller, no report

    def test_generator_fed_drain_is_bit_identical(self, tiny_model,
                                                  tiny_trace):
        config = _config()
        offline = run_simulation(tiny_trace, config, engine="bucket")
        stream = open_trace_stream(tiny_model)
        live = CableVoDSystem(None, config, n_users=stream.n_users,
                              catalog=stream.catalog).run(
            stream.chunks(), admission=_noop_controller())
        assert_identical(offline, live)
        assert live.trace_end_time == offline.trace_end_time

    def test_offline_result_has_no_live_report(self, tiny_trace):
        assert run_simulation(tiny_trace, _config(), engine="bucket").live is None


class TestActiveAdmission:
    """Direction and determinism of a real throttle+fairness drain."""

    @pytest.fixture(scope="class")
    def drained(self, abusive_trace):
        def drain():
            return CableVoDSystem(abusive_trace, _config()).run(
                admission=_active_controller())

        return drain(), drain()

    def test_deterministic(self, drained):
        first, second = drained
        assert_identical(first, second)
        assert vars(first.live) == vars(second.live)

    def test_abusers_lose_share_normals_keep_service(
            self, abusive_model, abusive_trace, drained):
        throttled = drained[0].live
        assert throttled.denied > 0
        abusers = abusive_user_ids(abusive_model)
        assert abusers
        normals = [uid for uid in range(abusive_model.n_users)
                   if uid not in set(abusers)]

        baseline = CableVoDSystem(abusive_trace, _config()).run(
            admission=_noop_controller()).live
        # Admission-off: abusers take an outsized coax share...
        assert baseline.coax_share(abusers) > 2 * len(abusers) / abusive_model.n_users
        # ...which the throttle+fairness drain pulls down,
        assert throttled.coax_share(abusers) < baseline.coax_share(abusers)
        assert throttled.fill_share(abusers) < baseline.fill_share(abusers)
        # while non-abusive subscribers keep (nearly) all their service.
        assert throttled.admit_rate(normals) > throttled.admit_rate(abusers)
        assert (throttled.served_seconds(normals)
                >= 0.8 * baseline.served_seconds(normals))

    @pytest.mark.parametrize("chunk_hours", [1, 3, 24])
    def test_chunked_drain_matches_materialized(self, abusive_model, drained,
                                                chunk_hours):
        """Deferred retries cross chunk boundaries without moving a bit."""
        stream = open_trace_stream(abusive_model, chunk_hours=chunk_hours)
        system = CableVoDSystem(None, _config(), catalog=stream.catalog,
                                n_users=stream.n_users)
        chunked = system.run(stream.chunks(), admission=_active_controller())
        assert result_digest(chunked) == result_digest(drained[0])
        assert vars(chunked.live) == vars(drained[0].live)
        assert chunked.live.deferrals > 0

    def test_summary_mentions_live_admission(self, drained):
        assert "live admission" in drained[0].summary()
