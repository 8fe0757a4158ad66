"""Live knobs in the scenario schema: validation, round-trips, sweeps."""

from __future__ import annotations

from dataclasses import replace

import pytest

from bench.checks import result_digest
from repro.core.config import SimulationConfig
from repro.core.parallel import ShardSpec, SimulationTask, iter_task_results
from repro.errors import ConfigurationError
from repro.live import FairnessSpec, ThrottleSpec
from repro.scenario import Scenario, Sweep, apply_path, run_scenario, run_sweep
from repro.scenario.metrics import metric_columns
from repro.scenario.runner import scenario_task
from repro.trace.synthetic import PowerInfoModel

MODEL = PowerInfoModel(n_users=120, n_programs=24, days=1.0, seed=23,
                       abusive_fraction=0.1, abusive_rate_x=4.0)


def _scenario(**kwargs):
    defaults = dict(
        trace=MODEL,
        config=SimulationConfig(neighborhood_size=40, warmup_days=0.25),
        label="live-demo",
        scale=1.0,
        live=True,
        throttle=ThrottleSpec(user_budget=3, user_window_seconds=43200.0),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestSchema:
    def test_specs_coerce_from_names_and_dicts(self):
        scenario = _scenario(throttle="throttle:3,43200",
                             fairness={"name": "vtc", "lead_seconds": 7200.0})
        assert scenario.throttle == ThrottleSpec(user_budget=3,
                                                 user_window_seconds=43200.0)
        assert scenario.fairness == FairnessSpec(lead_seconds=7200.0)

    def test_json_round_trip_is_lossless(self):
        scenario = _scenario(fairness=FairnessSpec(lead_seconds=7200.0))
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert rebuilt.throttle == scenario.throttle
        assert rebuilt.fairness == scenario.fairness

    def test_offline_scenario_emits_no_live_keys(self):
        payload = Scenario(trace=MODEL,
                           config=SimulationConfig()).to_dict()
        assert "live" not in payload
        assert "throttle" not in payload
        assert "fairness" not in payload

    def test_admission_without_live_rejected(self):
        with pytest.raises(ConfigurationError, match="live=true"):
            _scenario(live=False)

    def test_live_requires_bucket_engine(self):
        with pytest.raises(ConfigurationError, match="bucket"):
            _scenario(engine="columnar")

    def test_live_rejects_shards(self):
        with pytest.raises(ConfigurationError, match="sharded"):
            _scenario(shards=2)

    def test_live_streaming_rejects_shards(self):
        with pytest.raises(ConfigurationError, match="sharded"):
            _scenario(streaming=True, shards=2)

    def test_live_task_rejects_a_cut_plant(self):
        workload = _scenario().workload()
        live = (ThrottleSpec(), None)
        SimulationTask(workload=workload, config=SimulationConfig(),
                       shard=ShardSpec(n_shards=1, index=0, streaming=True),
                       live=live)
        with pytest.raises(ConfigurationError, match="shard task"):
            SimulationTask(workload=workload, config=SimulationConfig(),
                           shard=ShardSpec(n_shards=2, index=0), live=live)

    def test_live_task_resolves_to_bucket_and_refuses_others(self):
        workload = _scenario().workload()
        live = (ThrottleSpec(), None)
        task = SimulationTask(workload=workload, config=SimulationConfig(),
                              live=live)
        assert task.engine == "bucket"
        with pytest.raises(ConfigurationError, match="bucket"):
            SimulationTask(workload=workload, config=SimulationConfig(),
                           engine="columnar", live=live)

    def test_wrong_spec_family_rejected(self):
        with pytest.raises(ConfigurationError, match="throttle"):
            _scenario(throttle="vtc")


class TestSweepPaths:
    def test_bare_path_swaps_whole_spec(self):
        base = _scenario()
        swapped = apply_path(base, "throttle", None)
        assert swapped.throttle is None
        restored = apply_path(swapped, "fairness",
                              FairnessSpec(lead_seconds=3600.0))
        assert restored.fairness == FairnessSpec(lead_seconds=3600.0)

    def test_dotted_path_moves_one_field(self):
        tightened = apply_path(_scenario(), "throttle.user_budget", 1)
        assert tightened.throttle.user_budget == 1
        assert tightened.throttle.user_window_seconds == 43200.0

    def test_dotted_path_needs_a_base_spec(self):
        base = _scenario(throttle=None,
                         fairness=FairnessSpec(lead_seconds=3600.0))
        with pytest.raises(ConfigurationError, match="bare 'throttle'"):
            apply_path(base, "throttle.user_budget", 1)

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigurationError, match="no field"):
            apply_path(_scenario(), "throttle.warp_factor", 9)

    def test_sweep_round_trips_live_axes(self):
        sweep = Sweep(
            base=_scenario(),
            sweep_id="live-rt",
            axes={
                "throttle": [None, {"value": {"name": "throttle",
                                              "user_budget": 2}}],
            },
        )
        rebuilt = Sweep.from_json(sweep.to_json())
        assert rebuilt == sweep
        specs = [s.throttle for s, _ in rebuilt.expand()]
        assert specs == [None, ThrottleSpec(user_budget=2)]


class TestLiveRows:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Sweep(
            base=_scenario(metrics=("live",)),
            sweep_id="live-rows",
            axes={"throttle": [
                {"value": None, "cols": {"budget": 0}},
                {"value": {"name": "throttle", "user_budget": 2,
                           "user_window_seconds": 43200.0},
                 "cols": {"budget": 2}},
            ]},
        )

    def test_rows_carry_live_columns(self, sweep):
        rows = run_sweep(sweep)
        assert len(rows) == 2
        off, on = rows
        assert off["live_denied"] == 0
        assert off["admit_pct"] == pytest.approx(100.0)
        assert on["live_denied"] > 0
        assert on["abuser_admit_pct"] < on["normal_admit_pct"]

    def test_parallel_rows_match_serial(self, sweep):
        assert run_sweep(sweep, workers=2) == run_sweep(sweep, workers=1)

    def test_live_metrics_need_a_live_run(self):
        offline = Scenario(trace=MODEL, config=SimulationConfig(),
                           metrics=("live",))
        result = run_scenario(offline)
        with pytest.raises(ConfigurationError, match="live=true"):
            metric_columns(offline.metrics, offline, result)

    def test_run_scenario_attaches_live_report(self):
        result = run_scenario(_scenario())
        assert result.live is not None
        assert result.live.requests > 0


class TestLiveStreaming:
    def test_streamed_drain_matches_materialized(self):
        fairness = FairnessSpec(lead_seconds=7200.0, fill_weight=2.0)
        materialized = run_scenario(_scenario(fairness=fairness))
        streamed = run_scenario(_scenario(fairness=fairness, streaming=True))
        assert result_digest(streamed) == result_digest(materialized)
        assert vars(streamed.live) == vars(materialized.live)
        assert streamed.live.deferrals > 0

    def test_streamed_live_task_without_engine_matches(self, monkeypatch):
        """``engine=None`` resolves to bucket for a live task, not auto."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        scenario = _scenario(fairness=FairnessSpec(lead_seconds=7200.0))
        materialized = run_scenario(scenario)
        task = replace(scenario_task(scenario), engine=None,
                       shard=ShardSpec(n_shards=1, index=0, streaming=True))
        [(streamed, _)] = iter_task_results([task], workers=1)
        assert result_digest(streamed) == result_digest(materialized)
        assert vars(streamed.live) == vars(materialized.live)


class TestLiveMetricSet:
    def test_registered_in_row_metrics(self):
        from repro.scenario.metrics import ROW_METRICS

        assert "live" in ROW_METRICS

    def test_unknown_metric_set_still_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(trace=MODEL, config=SimulationConfig(),
                     metrics=("qoe",))
