"""The cable plant as a permutation: ``order``, its inverse ``rank``, cuts.

Determinism per neighborhood size and seed is pinned beside the shuffle
itself, in ``tests/topology/test_placement.py``.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro.topology.hfc import CablePlant
from repro.topology.placement import place_users

PLANTS = st.tuples(st.integers(min_value=1, max_value=400),
                   st.integers(min_value=1, max_value=100))


class TestCablePlant:
    def test_basic_construction(self):
        plant = CablePlant(array("q", [2, 0, 3, 1]), 3)
        assert list(plant.rank) == [1, 3, 0, 2]
        assert plant.neighborhood_size == 3
        assert len(plant) == 2
        assert list(plant.members(0)) == [2, 0, 3]
        assert list(plant.members(1)) == [1]

    def test_neighborhood_of(self):
        # Neighborhood = rank // size, peer index = rank % size.
        plant = CablePlant(array("q", [5, 6, 7, 0, 1, 2, 3, 4]), 3)
        assert [divmod(plant.rank[user], 3) for user in (7, 0, 4)] == [
            (0, 2), (1, 0), (2, 1)]


class TestPermutation:
    @given(PLANTS)
    @settings(max_examples=30, deadline=None)
    def test_order_is_a_permutation(self, plant_args):
        n_users, size = plant_args
        plant = place_users(n_users, size)
        assert isinstance(plant.order, array)
        assert sorted(plant.order) == list(range(n_users))
        assert plant.neighborhood_size == size

    @given(PLANTS)
    @settings(max_examples=30, deadline=None)
    def test_rank_inverts_order(self, plant_args):
        plant = place_users(*plant_args)
        assert len(plant.rank) == len(plant.order)
        assert all(plant.order[plant.rank[user]] == user
                   for user in range(len(plant.order)))

    @given(PLANTS)
    @settings(max_examples=30, deadline=None)
    def test_slices_are_the_neighborhoods(self, plant_args):
        n_users, size = plant_args
        plant = place_users(n_users, size)
        full, remainder = divmod(n_users, size)
        members = [plant.members(nid) for nid in range(len(plant))]
        assert [len(users) for users in members] == (
            [size] * full + ([remainder] if remainder else []))
        assert [user for users in members for user in users] == list(
            plant.order)
        for nid, users in enumerate(members):
            for peer, user in enumerate(users):
                assert divmod(plant.rank[user], size) == (nid, peer)
