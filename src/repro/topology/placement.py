"""Deterministic placement of trace users into coaxial neighborhoods.

Paper section V-B: "the simulator associates users in the trace with
subscribers in a neighborhood.  The simulator places subscribers in
neighborhoods uniformly at random.  Neighborhood size is specified as a
parameter ... Peer placement is the same for each execution of the
simulation with the same neighborhood size parameter.  This is done so
differences in the results of simulator executions are caused exclusively
by algorithm performance and not user placement."

We reproduce that contract exactly: the shuffle is keyed *only* by the
placement seed and the neighborhood-size parameter, never by the
experiment's own seed, so two runs that differ in caching strategy see an
identical mapping.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from repro.errors import TopologyError
from repro.sim.random_streams import RandomStreams
from repro.topology.hfc import CablePlant

#: Root seed of the placement shuffle.  Fixed by design (see module
#: docstring); change it only to study placement sensitivity.
PLACEMENT_SEED = 60311


def place_users(
    n_users: int,
    neighborhood_size: int,
    placement_seed: int = PLACEMENT_SEED,
) -> CablePlant:
    """Partition ``n_users`` into uniform-random neighborhoods.

    Users are shuffled deterministically (keyed by ``placement_seed`` and
    ``neighborhood_size``) and cut into consecutive groups of
    ``neighborhood_size``; the final group holds the remainder.  A
    uniform shuffle followed by equal cuts is exactly a uniform random
    assignment subject to the size constraint.

    Parameters
    ----------
    n_users:
        Total subscriber population (trace user ids ``0..n_users-1``).
    neighborhood_size:
        Target subscribers per coax segment.  The paper explores 100 to
        1,000 (section V-B: "typical real world sizes").
    placement_seed:
        Root seed of the shuffle; defaults to the fixed library seed.

    Returns
    -------
    CablePlant
        The shuffled ids as a permutation (``order``) and its inverse
        (``rank``); the plant has ``ceil(n_users / neighborhood_size)``
        neighborhoods.
    """
    if n_users <= 0:
        raise TopologyError(f"n_users must be positive, got {n_users}")
    if neighborhood_size <= 0:
        raise TopologyError(
            f"neighborhood_size must be positive, got {neighborhood_size}"
        )
    rng = RandomStreams(placement_seed).get(f"placement-size-{neighborhood_size}")
    users = array("q", range(n_users))
    rng.shuffle(users)
    return CablePlant(users, neighborhood_size)


@lru_cache(maxsize=2)
def shared_plant(
    n_users: int,
    neighborhood_size: int,
    placement_seed: int = PLACEMENT_SEED,
) -> CablePlant:
    """:func:`place_users`, built once per process per key.

    The plant is keyed by three ints and never mutated, so every
    system built in one process -- each shard task a pool worker runs,
    and the parent's shard split -- shares one instance instead of
    reshuffling the metro.
    """
    return place_users(n_users, neighborhood_size, placement_seed)
