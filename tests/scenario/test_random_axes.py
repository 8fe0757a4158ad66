"""Random sweep axes: seeded low-discrepancy sampling over a domain."""

from __future__ import annotations

import json

import pytest

from repro.core.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.scenario import Scenario, Sweep
from repro.scenario.sweep import RandomAxis
from repro.trace.families.stress import FlashCrowdModel
from repro.trace.synthetic import PowerInfoModel

MODEL = PowerInfoModel(n_users=300, n_programs=60, days=4.0, seed=11)

BASE = Scenario(
    trace=MODEL,
    config=SimulationConfig(neighborhood_size=100, warmup_days=1.0),
    label="base",
    scale=0.05,
)


def _sampled(**kwargs):
    defaults = dict(
        base=BASE,
        sweep_id="randemo",
        axes={"config.neighborhood_size": [50, 100]},
        random_axes={
            "config.per_peer_storage_gb": {"low": 1.0, "high": 10.0,
                                           "count": 3, "seed": 4},
        },
    )
    defaults.update(kwargs)
    return Sweep(**defaults)


class TestRandomAxisValues:
    def test_range_samples_are_deterministic_and_in_range(self):
        axis = RandomAxis(name="gb", path="config.per_peer_storage_gb",
                          count=16, seed=7, low=1.0, high=10.0)
        values = axis.values()
        assert values == axis.values()
        assert len(values) == 16
        assert all(1.0 <= v <= 10.0 for v in values)
        # Low-discrepancy, not a constant: prefixes spread over the range.
        assert max(values[:4]) - min(values[:4]) > 2.0

    def test_integer_range_hits_whole_values_inclusively(self):
        axis = RandomAxis(name="n", path="config.neighborhood_size",
                          count=64, seed=1, low=10, high=13, integer=True)
        values = axis.values()
        assert set(values) <= {10, 11, 12, 13}
        assert len(set(values)) == 4

    def test_choices_draw_from_the_listed_values(self):
        axis = RandomAxis(name="label", path="label", count=10, seed=2,
                          choices=("columnar", "bucket"))
        assert set(axis.values()) == {"columnar", "bucket"}

    def test_seed_and_name_both_move_the_sequence(self):
        base = RandomAxis(name="gb", path="p", count=8, seed=0,
                          low=0.0, high=1.0)
        reseeded = RandomAxis(name="gb", path="p", count=8, seed=1,
                              low=0.0, high=1.0)
        renamed = RandomAxis(name="gb2", path="p", count=8, seed=0,
                             low=0.0, high=1.0)
        assert base.values() != reseeded.values()
        assert base.values() != renamed.values()


class TestRandomAxisValidation:
    def test_count_must_be_a_positive_integer(self):
        with pytest.raises(ConfigurationError, match="count"):
            RandomAxis(name="x", path="p", count=0, low=0.0, high=1.0)
        with pytest.raises(ConfigurationError, match="count"):
            RandomAxis(name="x", path="p", count=True, low=0.0, high=1.0)

    def test_choices_exclude_the_range_keys(self):
        with pytest.raises(ConfigurationError, match="excludes"):
            RandomAxis(name="x", path="p", count=2, choices=(1, 2), low=0.0)

    def test_range_needs_both_bounds_in_order(self):
        with pytest.raises(ConfigurationError, match="low"):
            RandomAxis(name="x", path="p", count=2)
        with pytest.raises(ConfigurationError, match="low must be < high"):
            RandomAxis(name="x", path="p", count=2, low=5.0, high=5.0)

    def test_integer_range_needs_whole_bounds(self):
        with pytest.raises(ConfigurationError, match="whole"):
            RandomAxis(name="x", path="p", count=2, low=0.5, high=4.0,
                       integer=True)

    def test_unknown_spec_keys_are_rejected(self):
        with pytest.raises(ConfigurationError, match="no keys"):
            Sweep(base=BASE, random_axes={
                "x": {"low": 0.0, "high": 1.0, "count": 2, "samples": 9},
            })

    def test_duplicate_names_across_declared_and_random(self):
        with pytest.raises(ConfigurationError, match="unique"):
            Sweep(base=BASE,
                  axes={"config.neighborhood_size": [50, 100]},
                  random_axes={"config.neighborhood_size": {
                      "low": 10, "high": 20, "count": 2, "integer": True}})

    def test_bad_path_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            Sweep(base=BASE, random_axes={
                "config.no_such_knob": {"low": 0.0, "high": 1.0, "count": 2},
            })


class TestExpansion:
    def test_sampled_axes_expand_after_declared_ones(self):
        sweep = _sampled()
        assert len(sweep) == 6
        grid = sweep.expand()
        sampled = sweep.random_axes[0].values()
        seen = [(s.config.neighborhood_size, s.config.per_peer_storage_gb)
                for s, _ in grid]
        # Declared axis slowest, sampled axis fastest.
        assert seen == [(size, value)
                        for size in (50, 100) for value in sampled]

    def test_random_axis_can_set_the_trace_model(self):
        sweep = Sweep(base=BASE, random_axes={
            "trace": {"count": 4, "seed": 3, "choices": [
                {"family": "flash-crowd",
                 "base": {"n_users": 300, "n_programs": 60, "days": 4.0,
                          "seed": 11},
                 "spike_x": 8.0},
                {"n_users": 300, "n_programs": 60, "days": 4.0, "seed": 12},
            ]},
        })
        models = {type(s.trace) for s in sweep.scenarios()}
        assert models == {FlashCrowdModel, PowerInfoModel}

    def test_random_axes_participate_in_zip_groups(self):
        sweep = Sweep(
            base=BASE,
            axes={"label": ["a", "b", "c"]},
            random_axes={"config.per_peer_storage_gb": {
                "low": 1.0, "high": 10.0, "count": 3, "seed": 4}},
            zip_groups=(("label", "config.per_peer_storage_gb"),),
        )
        assert len(sweep) == 3
        values = sweep.random_axes[0].values()
        assert [(s.label, s.config.per_peer_storage_gb)
                for s in sweep.scenarios()] == \
            list(zip(["a", "b", "c"], values))

    def test_zip_group_requires_equal_counts(self):
        with pytest.raises(ConfigurationError, match="equal point counts"):
            Sweep(
                base=BASE,
                axes={"label": ["a", "b", "c"]},
                random_axes={"config.per_peer_storage_gb": {
                    "low": 1.0, "high": 10.0, "count": 2}},
                zip_groups=(("label", "config.per_peer_storage_gb"),),
            )


class TestSerialization:
    def test_json_round_trip_is_the_identity(self):
        sweep = _sampled()
        rebuilt = Sweep.from_json(sweep.to_json())
        assert rebuilt == sweep
        assert rebuilt.expand() == sweep.expand()

    def test_round_trip_preserves_choices_and_integer(self):
        sweep = Sweep(base=BASE, random_axes={
            "config.neighborhood_size": {"low": 10, "high": 40, "count": 5,
                                         "seed": 6, "integer": True},
            "label": {"count": 4, "choices": ["x", "y"]},
        })
        rebuilt = Sweep.from_json(sweep.to_json())
        assert rebuilt == sweep
        payload = json.loads(sweep.to_json())
        assert payload["random"]["label"]["choices"] == ["x", "y"]
        assert payload["random"]["config.neighborhood_size"]["integer"] is True

    def test_default_seed_is_omitted_from_the_payload(self):
        sweep = Sweep(base=BASE, random_axes={
            "config.per_peer_storage_gb": {"low": 1.0, "high": 2.0,
                                           "count": 2},
        })
        payload = sweep.to_dict()
        assert "seed" not in payload["random"]["config.per_peer_storage_gb"]

    def test_flattened_inlines_the_samples(self):
        sweep = _sampled()
        flat = sweep.flattened()
        assert flat.random_axes == ()
        assert flat.scenarios() == sweep.scenarios()
        assert [cols for _, cols in flat.expand()] == \
            [cols for _, cols in sweep.expand()]
        # And the flattened form is portable: JSON round-trips and
        # re-expands to the same grid without sampling anything.
        rebuilt = Sweep.from_json(flat.to_json())
        assert rebuilt.scenarios() == sweep.scenarios()
