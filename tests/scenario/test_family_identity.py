"""The registry refactor left the powerinfo pipeline bit-identical.

PowerInfoModel is now one entry in the workload-family registry; the
scenario layer resolves it through ``spec_from_dict`` and runs it via
``WorkloadModel.build_trace``.  These tests pin the whole path -- the
legacy wire format, every engine, and the worker pool -- against a
direct ``run_simulation(cached_trace(model), config)``: counters,
``events_processed``, and every bucket of every meter must match
exactly, or the registry changed the physics instead of the plumbing.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationTask, iter_task_results
from repro.core.runner import run_simulation
from repro.core.system import columnar_supported
from repro.scenario import Scenario
from repro.scenario.model import model_from_dict, model_to_dict
from repro.scenario.runner import run_scenario, scenario_task
from repro.trace.synthetic import PowerInfoModel, cached_trace
from repro.trace.workload import Workload

MODEL = PowerInfoModel(n_users=200, n_programs=40, days=3.0, seed=13)
CONFIG = SimulationConfig(neighborhood_size=50, per_peer_storage_gb=2.0,
                          warmup_days=1.0)

ENGINES = ["bucket"] + (["columnar"] if columnar_supported() else [])

#: The exact dict a pre-registry scenario file carried for this model.
LEGACY_PAYLOAD = {"n_users": 200, "n_programs": 40, "days": 3.0, "seed": 13}


def meter_buckets(meter):
    return {hour: meter.bits_in_hour(hour) for hour in meter.hours()}


def assert_identical_results(actual, reference):
    """Counters, event count, and every bucket of every meter match."""
    assert vars(actual.counters) == vars(reference.counters)
    assert actual.events_processed == reference.events_processed
    assert actual.n_users == reference.n_users
    assert actual.n_neighborhoods == reference.n_neighborhoods
    assert meter_buckets(actual.server_meter) == \
        meter_buckets(reference.server_meter)
    for name in ("coax_meters", "upstream_meters", "total_meters",
                 "server_meters"):
        actual_meters = getattr(actual, name)
        reference_meters = getattr(reference, name)
        assert set(actual_meters) == set(reference_meters)
        for key, meter in actual_meters.items():
            assert meter_buckets(meter) == \
                meter_buckets(reference_meters[key]), f"{name}[{key}]"


class TestLegacyWireFormat:
    def test_payload_resolves_to_the_same_model(self):
        assert model_from_dict(LEGACY_PAYLOAD) == MODEL

    def test_serialization_is_byte_stable(self):
        assert model_to_dict(MODEL) == LEGACY_PAYLOAD


class TestScenarioPathBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_registry_path_matches_direct_run(self, engine):
        reference = run_simulation(cached_trace(MODEL), CONFIG, engine=engine)
        scenario = Scenario(trace=model_from_dict(LEGACY_PAYLOAD),
                            config=CONFIG, engine=engine)
        assert_identical_results(run_scenario(scenario), reference)

    def test_family_build_trace_is_the_cached_trace(self):
        # The scenario layer's trace materialization must still hit the
        # process-wide memo, not rebuild per run.
        workload = Workload(model=MODEL)
        from repro.trace.workload import cached_workload_trace

        assert cached_workload_trace(workload) is cached_trace(MODEL)


class TestPooledWorkersBitIdentity:
    def test_two_workers_match_the_direct_run(self):
        reference = run_simulation(cached_trace(MODEL), CONFIG)
        scenario = Scenario(trace=model_from_dict(LEGACY_PAYLOAD),
                            config=CONFIG)
        tasks = [scenario_task(scenario),
                 SimulationTask(workload=Workload(model=MODEL),
                                config=CONFIG)]
        outcomes = list(iter_task_results(tasks, workers=2))
        assert len(outcomes) == 2
        for result, _ in outcomes:
            assert_identical_results(result, reference)
