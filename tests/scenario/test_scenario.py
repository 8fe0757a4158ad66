"""Scenario/Sweep schema: validation, round-trips, expansion."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache.factory import (
    ARCSpec,
    FrequencySketchSpec,
    GDSFSpec,
    GlobalLFUSpec,
    LFUSpec,
    OracleSpec,
    ThresholdSpec,
    spec_from_dict,
    spec_from_name,
    spec_to_dict,
)
from repro.cache.policies import iter_policies
from repro.core.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.scenario import (
    Scenario,
    Sweep,
    apply_path,
    load,
    load_scenario,
    load_sweep,
)
from repro.trace.synthetic import PowerInfoModel

MODEL = PowerInfoModel(n_users=300, n_programs=60, days=4.0, seed=11)

BASE = Scenario(
    trace=MODEL,
    config=SimulationConfig(neighborhood_size=100, warmup_days=1.0),
    label="base",
    scale=0.05,
)


class TestSpecRoundTrip:
    """Acceptance: every registered spec survives to_dict -> from_dict."""

    @pytest.mark.parametrize("info", iter_policies(),
                             ids=[i.name for i in iter_policies()])
    def test_default_spec_round_trips(self, info):
        spec = info.spec_class()
        payload = spec_to_dict(spec)
        assert payload["name"] == info.name
        rebuilt = spec_from_dict(payload)
        assert rebuilt == spec
        assert type(rebuilt) is type(spec)

    @pytest.mark.parametrize("info", iter_policies(),
                             ids=[i.name for i in iter_policies()])
    def test_default_spec_survives_json(self, info):
        spec = info.spec_class()
        rebuilt = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert rebuilt == spec

    @pytest.mark.parametrize("spec", [
        LFUSpec(history_hours=24.0),
        LFUSpec(history_hours=None),
        GDSFSpec(history_hours=None),
        GlobalLFUSpec(history_hours=12.0, lag_seconds=1_800.0),
        OracleSpec(window_days=1.0, recompute_hours=2.0),
        ThresholdSpec(min_accesses=3, window_hours=None, eviction="gdsf"),
        FrequencySketchSpec(min_estimate=3, width=256, depth=2,
                            decay_accesses=500, eviction="arc"),
        ARCSpec(ghost_budget=0.25),
    ], ids=lambda s: s.label)
    def test_parameterized_spec_round_trips(self, spec):
        rebuilt = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert rebuilt == spec

    def test_spec_from_name_is_to_dict_inverse_for_defaults(self):
        for info in iter_policies():
            spec = spec_from_name(info.name)
            assert spec_to_dict(spec) == {"name": info.name}

    def test_spec_from_name_positional_and_keyword_args(self):
        assert spec_from_name("lfu:24") == LFUSpec(history_hours=24)
        assert spec_from_name("lfu:inf") == LFUSpec(history_hours=None)
        assert (spec_from_name("threshold:3,24,gdsf")
                == ThresholdSpec(min_accesses=3, window_hours=24,
                                 eviction="gdsf"))
        assert (spec_from_name("threshold:eviction=arc")
                == ThresholdSpec(eviction="arc"))
        assert spec_from_name("arc:0.5") == ARCSpec(ghost_budget=0.5)

    def test_spec_from_name_rejects_bad_args(self):
        with pytest.raises(ConfigurationError, match="parameter"):
            spec_from_name("lfu:history_hourz=3")
        with pytest.raises(ConfigurationError, match="at most"):
            spec_from_name("arc:1,2")
        with pytest.raises(ConfigurationError, match="twice"):
            spec_from_name("lfu:24,history_hours=48")

    def test_spec_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="no parameters"):
            spec_from_dict({"name": "lfu", "window": 3})
        with pytest.raises(ConfigurationError, match="name"):
            spec_from_dict({"history_hours": 3})


class TestScenarioRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        assert Scenario.from_dict(BASE.to_dict()) == BASE

    def test_json_round_trip_restores_tuples(self):
        scenario = Scenario(
            trace=dataclasses.replace(MODEL, length_minutes=(30.0, 60.0),
                                      length_weights=(0.5, 0.5)),
            config=SimulationConfig(peak_hours=(20, 21), warmup_days=0.5),
            engine="columnar",
            seed=99,
            scale=0.5,
        )
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert rebuilt.config.peak_hours == (20, 21)
        assert rebuilt.trace.length_minutes == (30.0, 60.0)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        BASE.save(path)
        assert load_scenario(path) == BASE
        assert load(path) == BASE

    def test_seed_override_changes_model_only(self):
        override = dataclasses.replace(BASE, seed=123)
        assert override.model() == dataclasses.replace(MODEL, seed=123)
        assert BASE.model() is MODEL

    def test_validation(self):
        for engine in ("warp", "heap"):
            with pytest.raises(ConfigurationError, match="engine"):
                Scenario(trace=MODEL, engine=engine)
        with pytest.raises(ConfigurationError, match="scale"):
            Scenario(trace=MODEL, scale=0.0)
        with pytest.raises(ConfigurationError, match="PowerInfoModel"):
            Scenario(trace="not-a-model")
        with pytest.raises(ConfigurationError, match="fields"):
            Scenario.from_dict({**BASE.to_dict(), "warp": 9})
        with pytest.raises(ConfigurationError, match="trace"):
            Scenario.from_dict({"kind": "scenario"})


class TestSweep:
    def _sweep(self):
        return Sweep(
            base=BASE,
            sweep_id="demo",
            title="demo sweep",
            columns=("strategy", "server_gbps"),
            axes={
                "config.per_peer_storage_gb": [
                    {"value": 1.0, "cols": {"tb": 0.1}},
                    5.0,
                ],
                "config.strategy": ["lru", "lfu:24", LFUSpec(history_hours=None)],
            },
        )

    def test_expansion_order_first_axis_slowest(self):
        grid = self._sweep().expand()
        assert len(grid) == 6
        storages = [s.config.per_peer_storage_gb for s, _ in grid]
        strategies = [s.config.strategy.label for s, _ in grid]
        assert storages == [1.0, 1.0, 1.0, 5.0, 5.0, 5.0]
        assert strategies == ["lru", "lfu(24h)", "lfu(inf)"] * 2

    def test_point_cols_attach_to_every_run_at_that_point(self):
        grid = self._sweep().expand()
        assert all(cols == {"tb": 0.1} for _, cols in grid[:3])
        assert all(cols == {} for _, cols in grid[3:])

    def test_dict_round_trip_is_lossless(self):
        sweep = self._sweep()
        assert Sweep.from_dict(sweep.to_dict()) == sweep

    def test_json_round_trip_is_lossless(self):
        sweep = self._sweep()
        rebuilt = Sweep.from_json(sweep.to_json())
        assert rebuilt == sweep
        assert rebuilt.expand() == sweep.expand()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep = self._sweep()
        sweep.save(path)
        assert load_sweep(path) == sweep
        assert load(path) == sweep

    def test_load_sweep_rejects_scenario_files(self, tmp_path):
        path = tmp_path / "scenario.json"
        BASE.save(path)
        with pytest.raises(ConfigurationError, match="scenario"):
            load_sweep(path)

    def test_multi_field_set_points(self):
        sweep = Sweep(base=BASE, axes={
            "pair": [
                {"set": {"config.neighborhood_size": 10,
                         "config.per_peer_storage_gb": 10.0},
                 "cols": {"nominal": 100}},
                {"set": {"config.neighborhood_size": 50,
                         "config.per_peer_storage_gb": 2.0},
                 "cols": {"nominal": 500}},
            ],
        })
        grid = sweep.expand()
        assert [(s.config.neighborhood_size, s.config.per_peer_storage_gb)
                for s, _ in grid] == [(10, 10.0), (50, 2.0)]
        assert [cols["nominal"] for _, cols in grid] == [100, 500]
        assert Sweep.from_json(sweep.to_json()) == sweep

    def test_trace_and_scenario_level_axes(self):
        sweep = Sweep(base=BASE, axes={
            "trace.n_users": [200, 400],
            "seed": [1, 2],
        })
        grid = sweep.expand()
        assert [(s.trace.n_users, s.seed) for s, _ in grid] == [
            (200, 1), (200, 2), (400, 1), (400, 2)]
        models = {s.model() for s, _ in grid}
        assert len(models) == 4

    def test_bad_paths_fail_at_construction(self):
        with pytest.raises(ConfigurationError, match="no field"):
            Sweep(base=BASE, axes={"config.warp_factor": [1]})
        with pytest.raises(ConfigurationError, match="must start with"):
            Sweep(base=BASE, axes={"warp.factor": [1]})
        with pytest.raises(ConfigurationError, match="sub-field"):
            apply_path(BASE, "engine.sub", "bucket")
        with pytest.raises(ConfigurationError, match="'value' or 'set'"):
            Sweep(base=BASE, axes={"config.strategy": [{"cols": {"a": 1}}]})

    def test_empty_axes_is_single_run(self):
        sweep = Sweep(base=BASE)
        assert len(sweep) == 1
        assert sweep.expand() == [(BASE, {})]
        assert Sweep.from_dict(sweep.to_dict()) == sweep
