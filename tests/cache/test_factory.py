"""Strategy specs: labels, construction, future-knowledge plumbing."""

import pytest

from repro.cache.factory import (
    ARCSpec,
    BuildInputs,
    GDSFSpec,
    GlobalLFUSpec,
    LFUSpec,
    LRUSpec,
    NoCacheSpec,
    OracleSpec,
    ThresholdSpec,
    spec_from_dict,
    spec_from_name,
)
from repro.cache.global_lfu import GlobalLFUStrategy
from repro.cache.lfu import LFUStrategy
from repro.cache.lru import LRUStrategy
from repro.cache.oracle import OracleStrategy
from repro.cache.policies import (
    GlobalLFUEviction,
    LFUEviction,
    LRUEviction,
    PolicyStrategy,
)
from repro.errors import ConfigurationError

from tests.cache.helpers import ClassicSpec


class TestBuild:
    def test_no_cache_builds_null_strategies(self):
        built = NoCacheSpec().build(BuildInputs(n_neighborhoods=3))
        assert len(built.strategies) == 3
        assert built.feed is None

    def test_lru_builds_independent_instances(self):
        built = LRUSpec().build(BuildInputs(n_neighborhoods=2))
        assert all(isinstance(s, PolicyStrategy) for s in built.strategies)
        assert all(isinstance(s.eviction, LRUEviction) for s in built.strategies)
        assert built.strategies[0] is not built.strategies[1]
        assert built.strategies[0].eviction is not built.strategies[1].eviction

    def test_lru_classic_builds_reference_implementation(self):
        built = ClassicSpec(LRUSpec()).build(BuildInputs(n_neighborhoods=2))
        assert all(isinstance(s, LRUStrategy) for s in built.strategies)

    def test_lfu_passes_history(self):
        built = LFUSpec(history_hours=12.0).build(BuildInputs(n_neighborhoods=1))
        assert isinstance(built.strategies[0], PolicyStrategy)
        assert isinstance(built.strategies[0].eviction, LFUEviction)

    def test_lfu_classic_builds_reference_implementation(self):
        built = ClassicSpec(LFUSpec()).build(BuildInputs(n_neighborhoods=1))
        assert isinstance(built.strategies[0], LFUStrategy)

    def test_oracle_requires_futures(self):
        with pytest.raises(ConfigurationError):
            OracleSpec().build(BuildInputs(n_neighborhoods=1))

    def test_oracle_futures_count_must_match(self):
        with pytest.raises(ConfigurationError):
            OracleSpec().build(
                BuildInputs(n_neighborhoods=2, future_accesses=[{}])
            )

    def test_oracle_builds_per_neighborhood(self):
        built = OracleSpec().build(
            BuildInputs(n_neighborhoods=2,
                        future_accesses=[{1: [1.0]}, {2: [2.0]}])
        )
        assert all(isinstance(s, OracleStrategy) for s in built.strategies)

    def test_global_lfu_shares_feed(self):
        built = GlobalLFUSpec(lag_seconds=60.0).build(BuildInputs(n_neighborhoods=3))
        assert built.feed is not None
        assert all(isinstance(s, PolicyStrategy) for s in built.strategies)
        assert all(isinstance(s.eviction, GlobalLFUEviction) for s in built.strategies)
        assert all(s.eviction._feed is built.feed for s in built.strategies)

    def test_global_lfu_classic_shares_feed(self):
        built = ClassicSpec(GlobalLFUSpec(lag_seconds=60.0)).build(
            BuildInputs(n_neighborhoods=2)
        )
        assert all(isinstance(s, GlobalLFUStrategy) for s in built.strategies)
        assert all(s._feed is built.feed for s in built.strategies)


class TestLabels:
    def test_labels_are_distinct_and_stable(self):
        labels = {
            NoCacheSpec().label,
            LRUSpec().label,
            LFUSpec().label,
            OracleSpec().label,
            GlobalLFUSpec().label,
            GlobalLFUSpec(lag_seconds=1800.0).label,
            GDSFSpec().label,
            ARCSpec().label,
            ThresholdSpec().label,
            ThresholdSpec(eviction="lfu").label,
        }
        assert len(labels) == 10

    def test_lfu_label_mentions_history(self):
        assert "24" in LFUSpec(history_hours=24.0).label

    def test_global_label_mentions_lag_minutes(self):
        assert "30" in GlobalLFUSpec(lag_seconds=1800.0).label


class TestSpecFromName:
    def test_known_names(self):
        assert isinstance(spec_from_name("none"), NoCacheSpec)
        assert isinstance(spec_from_name("lru"), LRUSpec)
        assert isinstance(spec_from_name("lfu"), LFUSpec)
        assert isinstance(spec_from_name("oracle"), OracleSpec)
        assert isinstance(spec_from_name("global-lfu"), GlobalLFUSpec)
        assert isinstance(spec_from_name("gdsf"), GDSFSpec)
        assert isinstance(spec_from_name("arc"), ARCSpec)
        assert isinstance(spec_from_name("threshold"), ThresholdSpec)

    def test_classic_is_not_a_parameter(self):
        with pytest.raises(ConfigurationError):
            spec_from_name("lfu:classic=1")
        with pytest.raises(ConfigurationError):
            spec_from_dict({"name": "lfu", "classic": True})

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="lru"):
            spec_from_name("clock")

    def test_oracle_spec_requires_future_knowledge_flag(self):
        assert OracleSpec().requires_future_knowledge is True
        assert LRUSpec().requires_future_knowledge is False
