"""User placement: uniformity, determinism, the paper's V-B contract."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology.placement import place_users


class TestPartitioning:
    def test_every_user_placed_exactly_once(self):
        plant = place_users(1000, 150)
        assert sorted(plant.order) == list(range(1000))

    def test_neighborhood_count(self):
        assert len(place_users(1000, 250)) == 4
        assert len(place_users(1001, 250)) == 5

    def test_sizes_equal_except_remainder(self):
        plant = place_users(1050, 250)
        sizes = [len(plant.members(nid)) for nid in range(len(plant))]
        assert sizes == [250, 250, 250, 250, 50]

    def test_single_neighborhood_when_size_exceeds_population(self):
        plant = place_users(30, 100)
        assert len(plant) == 1
        assert len(plant.members(0)) == 30

    def test_rejects_bad_arguments(self):
        with pytest.raises(TopologyError):
            place_users(0, 10)
        with pytest.raises(TopologyError):
            place_users(10, 0)


class TestDeterminism:
    def test_same_size_same_placement(self):
        # Paper V-B: placement is identical across executions with the
        # same neighborhood-size parameter.
        a = place_users(500, 100)
        b = place_users(500, 100)
        assert a.order == b.order

    def test_different_sizes_differ(self):
        a = place_users(500, 100)
        b = place_users(500, 125)
        assert a.order != b.order

    def test_shuffle_actually_randomizes(self):
        plant = place_users(500, 100)
        assert list(plant.members(0)) != list(range(100))

    def test_custom_seed_changes_placement(self):
        a = place_users(500, 100)
        b = place_users(500, 100, placement_seed=999)
        assert a.order != b.order

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_property_partition_is_exact(self, n_users, size):
        plant = place_users(n_users, size)
        assert sorted(plant.order) == list(range(n_users))
        assert all(len(plant.members(nid)) <= size
                   for nid in range(len(plant)))
