"""HFC cable plant topology model.

The paper's section II describes a three-level hierarchy -- cable
operator, headends, coaxial neighborhoods of subscribers -- connected by
a switched fiber network (operator <-> headends) and legacy broadcast
coax (headend <-> subscribers).  Each headend serves one neighborhood,
so this package models the hierarchy as the subscriber layout alone:

* :mod:`repro.topology.hfc` -- :class:`CablePlant`, the placement as one
  user permutation and its inverse;
* :mod:`repro.topology.placement` -- the deterministic uniform-random
  assignment of trace users to neighborhoods required by section V-B;
* :mod:`repro.topology.sharding` -- the contiguous neighborhood-group
  partition behind sharded metro replay.
"""

from repro.topology.hfc import CablePlant
from repro.topology.placement import place_users
from repro.topology.sharding import n_neighborhoods_for, partition_neighborhoods

__all__ = [
    "CablePlant",
    "n_neighborhoods_for",
    "partition_neighborhoods",
    "place_users",
]
