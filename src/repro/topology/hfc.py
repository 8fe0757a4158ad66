"""The HFC plant's subscriber layout.

The paper's section II describes a three-level hierarchy -- cable
operator, headends, coaxial neighborhoods of subscribers.  Each headend
serves exactly one neighborhood, and its index server manages that
neighborhood's cooperative cache, so the only fact the simulator needs
about the hierarchy is which subscribers share a coax segment.  A
:class:`CablePlant` holds exactly that: one permutation of the user ids,
cut into consecutive runs of ``neighborhood_size``, plus its inverse.
"""

from __future__ import annotations

from array import array


class CablePlant:
    """Users placed into coax neighborhoods, as a permutation.

    Attributes
    ----------
    order:
        Every user id once, in placement order.  Neighborhood ``i`` is
        ``order[i * neighborhood_size:(i + 1) * neighborhood_size]``;
        the last neighborhood holds the remainder.
    rank:
        The inverse permutation: ``order[rank[user]] == user``, so user
        ``u`` lives in neighborhood ``rank[u] // neighborhood_size`` as
        peer ``rank[u] % neighborhood_size``.
    neighborhood_size:
        Subscribers per full neighborhood.
    """

    __slots__ = ("order", "rank", "neighborhood_size")

    def __init__(self, order: array, neighborhood_size: int) -> None:
        self.order = order
        self.neighborhood_size = neighborhood_size
        rank = array("q", bytes(8 * len(order)))
        for position, user_id in enumerate(order):
            rank[user_id] = position
        self.rank = rank

    def __len__(self) -> int:
        """The neighborhood count."""
        return -(-len(self.order) // self.neighborhood_size)

    def members(self, neighborhood_id: int) -> array:
        """The user ids of one neighborhood, in peer order."""
        size = self.neighborhood_size
        return self.order[neighborhood_id * size:(neighborhood_id + 1) * size]
