"""Cooperative-cache policy engine and the headend index server.

The paper's index server (section IV-B) decides *which programs* live
in a neighborhood's cooperative cache and *where their segments* sit
among the set-top peers.  Since PR 2 those concerns are layered as a
policy engine:

* :mod:`repro.cache.base` -- the strategy substrate:
  :class:`CacheStrategy` owns membership and byte accounting and emits
  :class:`MembershipChange` deltas for the index server to apply.
* :mod:`repro.cache.policies` -- the engine itself.  A policy is the
  composition of an *admission* side (may this program enter?) and an
  *eviction* side (who makes room?), driven through
  :class:`~repro.cache.policies.api.PolicyStrategy`.  Families:
  LRU, windowed LFU (deferred/compacted heap), global LFU, GDSF
  (size-aware frequency), ARC-style adaptive, and threshold-gated
  admission composable with any of them.  Every family registers in
  the decorator-based registry that ``spec_from_name`` and the CLI's
  ``list-strategies`` resolve dynamically.
* :mod:`repro.cache.lru` / :mod:`repro.cache.lfu` /
  :mod:`repro.cache.oracle` / :mod:`repro.cache.global_lfu` -- the
  classic pre-engine implementations.  The oracle (schedule-driven,
  future knowledge) still runs as-is; no spec builds the others any
  more -- they remain only as the bit-identical references the
  equivalence tests (:mod:`tests.cache.test_policy_engine`) compare
  the engine against.
  :class:`~repro.cache.lfu.WindowedCounts` also remains the shared
  sliding-window count source the engine's frequency policies build on.
* :mod:`repro.cache.segments` -- 5-minute segmentation and least-loaded
  placement across peers, with decision-batched release
  (:meth:`~repro.cache.segments.PlacementMap.remove_programs`).  The
  map files each peer in one FIFO per count of free segment slots (its
  level) and gives each segment to the front of the highest non-empty
  level; a peer that takes or frees a segment joins the back of its
  new level, so ties go to the peer that reached the level first.
  Entries left behind by a level change are skipped (moved to the
  peer's current level) when they reach a front, and count again if
  the peer returns.  A placement that does not fit fails before it
  touches any peer.  Peers are dense indices with a slot count each;
  the map is the only storage ledger, and a peer's bytes in use are
  derived from its free slots.
* :mod:`repro.cache.index_server` -- the per-headend orchestrator that
  routes requests, fills segments from broadcasts, keeps each peer's
  channel leases (the paper's two-channel limit), and applies
  membership changes to physical placement one batched decision at a
  time.
* :mod:`repro.cache.factory` -- config-level strategy specifications
  used by :class:`repro.core.config.SimulationConfig`, one registered
  spec per policy family.
"""

from repro.cache.base import CacheStrategy, MembershipChange, StrategyContext
from repro.cache.factory import (
    ARCSpec,
    FrequencySketchSpec,
    GDSFSpec,
    GlobalLFUSpec,
    LFUSpec,
    LRUSpec,
    NoCacheSpec,
    OracleSpec,
    StrategySpec,
    ThresholdSpec,
    spec_from_dict,
    spec_from_name,
    spec_to_dict,
)
from repro.cache.index_server import DeliveryOutcome, IndexServer
from repro.cache.lru import LRUStrategy
from repro.cache.lfu import LFUStrategy, WindowedCounts
from repro.cache.oracle import OracleStrategy
from repro.cache.global_lfu import GlobalLFUStrategy, GlobalPopularityFeed
from repro.cache.policies import (
    AdmissionPolicy,
    EvictionPolicy,
    PolicyStrategy,
    iter_policies,
    policy_names,
)

__all__ = [
    "CacheStrategy",
    "MembershipChange",
    "StrategyContext",
    "AdmissionPolicy",
    "EvictionPolicy",
    "PolicyStrategy",
    "WindowedCounts",
    "LRUStrategy",
    "LFUStrategy",
    "OracleStrategy",
    "GlobalLFUStrategy",
    "GlobalPopularityFeed",
    "IndexServer",
    "DeliveryOutcome",
    "StrategySpec",
    "NoCacheSpec",
    "LRUSpec",
    "LFUSpec",
    "OracleSpec",
    "GlobalLFUSpec",
    "GDSFSpec",
    "ARCSpec",
    "ThresholdSpec",
    "FrequencySketchSpec",
    "spec_from_name",
    "spec_from_dict",
    "spec_to_dict",
    "policy_names",
    "iter_policies",
]
