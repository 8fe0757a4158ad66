"""Simulation outputs: counters, meters, and the reductions the paper reports.

A :class:`SimulationResult` carries the raw per-hour bandwidth series for
the central server, every neighborhood coax segment, and the total
delivered traffic, plus event counters.  Reduction helpers implement the
paper's reporting conventions:

* *peak server load* -- mean hourly server rate over the 19:00-23:00
  buckets, warm-up excluded, with 5%/95% quantile error bars (Fig 8
  caption);
* *reduction vs. no cache* -- the no-cache load equals the total
  delivered traffic (broadcast bandwidth is the same whether a segment
  comes from a peer or the server -- section VI-B), so a single cached
  run yields both numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.core.config import SimulationConfig
from repro.core.meter import HourlyMeter
from repro.errors import SimulationError

if TYPE_CHECKING:  # import-cycle-free: only the annotation needs it
    from repro.live.admission import LiveReport


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of ``samples`` (q in [0, 1])."""
    if not samples:
        raise SimulationError("cannot take a quantile of zero samples")
    if not 0.0 <= q <= 1.0:
        raise SimulationError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class SimulationCounters:
    """Aggregate event counts across all neighborhoods."""

    sessions: int = 0
    segment_requests: int = 0
    peer_hits: int = 0
    local_hits: int = 0
    server_deliveries: int = 0
    busy_misses: int = 0
    cold_misses: int = 0
    fills: int = 0
    fill_skips: int = 0
    admissions: int = 0
    evictions: int = 0
    placement_failures: int = 0

    @property
    def hits(self) -> int:
        """Requests served out of the cooperative cache."""
        return self.peer_hits + self.local_hits

    @property
    def hit_ratio(self) -> float:
        """Cache hits over all segment requests (0.0 if no requests)."""
        if self.segment_requests == 0:
            return 0.0
        return self.hits / self.segment_requests


@dataclass
class SimulationResult:
    """Everything one simulator execution produced."""

    config: SimulationConfig
    n_users: int
    n_neighborhoods: int
    trace_end_time: float
    server_meter: HourlyMeter
    total_meter: HourlyMeter
    coax_meters: Dict[int, HourlyMeter]
    counters: SimulationCounters
    #: Peer-originated broadcast traffic per neighborhood -- the share of
    #: coax traffic that relies on the paper's section IV-B.4
    #: bidirectional-amplifier requirement.  Empty when not metered.
    upstream_meters: Dict[int, HourlyMeter] = field(default_factory=dict)
    #: Per-neighborhood decompositions of ``total_meter`` and
    #: ``server_meter`` (keyed by *global* neighborhood id).  The engine
    #: meters every delivery against its neighborhood and folds the
    #: aggregate meters in ascending id order at result-build time; a
    #: sharded run carries each shard's slice here so the reduction can
    #: replay the identical fold.  Empty on hand-built results.
    total_meters: Dict[int, HourlyMeter] = field(default_factory=dict)
    server_meters: Dict[int, HourlyMeter] = field(default_factory=dict)
    events_processed: int = 0
    wall_seconds: float = 0.0
    #: Per-user live-admission accounting
    #: (:class:`repro.live.admission.LiveReport`), set by
    #: :meth:`~repro.core.system.CableVoDSystem.run` under admission.
    #: ``None`` on offline replays and on merged shard results (live runs are
    #: monolithic).
    live: Optional["LiveReport"] = None

    # ------------------------------------------------------------------
    # Peak-hour server load (the headline metric)
    # ------------------------------------------------------------------

    def _window(self) -> Tuple[float, float]:
        return (self.config.warmup_seconds, self.trace_end_time)

    def peak_server_samples(self) -> List[float]:
        """Hourly server rates (bits/s) in peak hours after warm-up."""
        lo, hi = self._window()
        return [
            rate
            for _, rate in self.server_meter.hourly_rates(
                self.config.peak_hours, min_time=lo, max_time=hi
            )
        ]

    def peak_server_gbps(self) -> float:
        """Mean peak-hour server load in Gb/s (the Fig 8/9/10/15 y-axis)."""
        samples = self.peak_server_samples()
        if not samples:
            return 0.0
        return units.to_gbps(sum(samples) / len(samples))

    def peak_server_quantiles_gbps(self, low: float = 0.05, high: float = 0.95
                                   ) -> Tuple[float, float]:
        """The 5%/95% error bars of the peak-hour server load."""
        samples = self.peak_server_samples()
        if not samples:
            return (0.0, 0.0)
        return (
            units.to_gbps(quantile(samples, low)),
            units.to_gbps(quantile(samples, high)),
        )

    # ------------------------------------------------------------------
    # No-cache reference and reduction
    # ------------------------------------------------------------------

    def no_cache_peak_gbps(self) -> float:
        """Peak-hour load a cacheless deployment would have carried.

        Equals the total delivered traffic: with no cache every one of
        these bits would have come from the central server.
        """
        lo, hi = self._window()
        samples = [
            rate
            for _, rate in self.total_meter.hourly_rates(
                self.config.peak_hours, min_time=lo, max_time=hi
            )
        ]
        if not samples:
            return 0.0
        return units.to_gbps(sum(samples) / len(samples))

    def peak_reduction(self) -> float:
        """Fractional server-load reduction vs. no cache (0.88 = 88%)."""
        baseline = self.no_cache_peak_gbps()
        if baseline <= 0:
            return 0.0
        return 1.0 - self.peak_server_gbps() / baseline

    # ------------------------------------------------------------------
    # Coax feasibility (Fig 14)
    # ------------------------------------------------------------------

    def coax_peak_samples(self, neighborhood_id: Optional[int] = None) -> List[float]:
        """Peak-hour coax rates (bits/s), pooled or for one neighborhood."""
        lo, hi = self._window()
        meters: Iterable[HourlyMeter]
        if neighborhood_id is None:
            meters = self.coax_meters.values()
        else:
            if neighborhood_id not in self.coax_meters:
                raise SimulationError(
                    f"no coax meter for neighborhood {neighborhood_id}"
                )
            meters = [self.coax_meters[neighborhood_id]]
        samples: List[float] = []
        for meter in meters:
            samples.extend(
                rate
                for _, rate in meter.hourly_rates(
                    self.config.peak_hours, min_time=lo, max_time=hi
                )
            )
        return samples

    def coax_peak_mean_mbps(self) -> float:
        """Mean peak-hour coax traffic per neighborhood (Fig 14 y-axis)."""
        samples = self.coax_peak_samples()
        if not samples:
            return 0.0
        return units.to_mbps(sum(samples) / len(samples))

    def coax_peak_quantile_mbps(self, q: float = 0.95) -> float:
        """Upper-tail coax traffic (the Fig 14 "poor cases")."""
        samples = self.coax_peak_samples()
        if not samples:
            return 0.0
        return units.to_mbps(quantile(samples, q))

    def byte_hit_ratio(self) -> float:
        """Fraction of delivered *bytes* supplied by the cooperative cache.

        Distinct from :attr:`SimulationCounters.hit_ratio`, which counts
        segment requests: long sessions weigh more here.  This is the
        "bit-to-hit ratio" framing of the proxy-caching literature the
        paper cites in section III-A.
        """
        total = self.total_meter.total_bits()
        if total <= 0:
            return 0.0
        return 1.0 - self.server_meter.total_bits() / total

    def upstream_peak_samples(self) -> List[float]:
        """Hourly peer-broadcast rates (bits/s) in peak hours, all neighborhoods."""
        lo, hi = self._window()
        samples: List[float] = []
        for meter in self.upstream_meters.values():
            samples.extend(
                rate
                for _, rate in meter.hourly_rates(
                    self.config.peak_hours, min_time=lo, max_time=hi
                )
            )
        return samples

    def upstream_peak_mean_mbps(self) -> float:
        """Mean peak-hour peer-broadcast traffic per neighborhood (Mb/s).

        This traffic exists only because the paper requires bidirectional
        amplifiers (section IV-B.4); comparing it against the legacy
        215 Mb/s upstream allocation shows why that requirement is real.
        """
        samples = self.upstream_peak_samples()
        if not samples:
            return 0.0
        return units.to_mbps(sum(samples) / len(samples))

    def coax_utilization(self) -> float:
        """Worst-case peak coax traffic as a fraction of VoD capacity.

        The paper's feasibility claim (section VI-B): at most ~17% of the
        coax line even in extreme cases.
        """
        samples = self.coax_peak_samples()
        if not samples:
            return 0.0
        return max(samples) / units.COAX_VOD_CAPACITY_BPS

    # ------------------------------------------------------------------
    # Shard reduction
    # ------------------------------------------------------------------

    @staticmethod
    def merged(shards: Sequence["SimulationResult"]) -> "SimulationResult":
        """Reduce per-shard results into one metro-wide result.

        Each shard simulated a disjoint group of neighborhoods, so the
        reduction is exact: integer counters sum, per-neighborhood
        meter dicts union (they are disjoint by construction), and the
        aggregate ``total_meter`` / ``server_meter`` are re-folded from
        the unioned per-neighborhood meters in ascending global id --
        the same fold a monolithic run performs, which is what makes
        the merged result bit-identical to it (the shard-invariance
        property pinned in ``tests/core/test_shard.py``).

        ``wall_seconds`` sums the shards' simulation time (total work,
        not elapsed wall clock); ``config`` is taken from the first
        shard -- callers hand in shards of one run, in shard order.
        """
        if not shards:
            raise SimulationError("cannot merge zero shard results")
        for shard in shards:
            if not shard.total_meters or not shard.server_meters:
                raise SimulationError(
                    "shard results must carry per-neighborhood "
                    "total/server meters to be merged"
                )
        counters = SimulationCounters()
        for shard in shards:
            for field_name in vars(counters):
                setattr(counters, field_name,
                        getattr(counters, field_name)
                        + getattr(shard.counters, field_name))

        def union(pick) -> Dict[int, HourlyMeter]:
            merged: Dict[int, HourlyMeter] = {}
            for shard in shards:
                for neighborhood_id, meter in pick(shard).items():
                    if neighborhood_id in merged:
                        raise SimulationError(
                            f"shards overlap on neighborhood "
                            f"{neighborhood_id}; groups must be disjoint"
                        )
                    merged[neighborhood_id] = meter
            return merged

        coax = union(lambda s: s.coax_meters)
        upstream = union(lambda s: s.upstream_meters)
        totals = union(lambda s: s.total_meters)
        servers = union(lambda s: s.server_meters)
        return SimulationResult(
            config=shards[0].config,
            n_users=sum(s.n_users for s in shards),
            n_neighborhoods=sum(s.n_neighborhoods for s in shards),
            trace_end_time=max(s.trace_end_time for s in shards),
            server_meter=HourlyMeter.merged(
                servers[k] for k in sorted(servers)),
            total_meter=HourlyMeter.merged(
                totals[k] for k in sorted(totals)),
            coax_meters=coax,
            upstream_meters=upstream,
            total_meters=totals,
            server_meters=servers,
            counters=counters,
            events_processed=sum(s.events_processed for s in shards),
            wall_seconds=sum(s.wall_seconds for s in shards),
        )

    # ------------------------------------------------------------------
    # Presentation helpers
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable digest of this run."""
        low, high = self.peak_server_quantiles_gbps()
        lines = [
            f"config            : {self.config.label()}",
            f"users / nbhds     : {self.n_users} / {self.n_neighborhoods}",
            f"sessions          : {self.counters.sessions}",
            f"segment requests  : {self.counters.segment_requests}",
            f"hit ratio         : {self.counters.hit_ratio:.1%}",
            f"peak server load  : {self.peak_server_gbps():.2f} Gb/s "
            f"[{low:.2f}, {high:.2f}]",
            f"no-cache baseline : {self.no_cache_peak_gbps():.2f} Gb/s",
            f"reduction         : {self.peak_reduction():.1%}",
            f"coax peak mean    : {self.coax_peak_mean_mbps():.0f} Mb/s "
            f"(p95 {self.coax_peak_quantile_mbps():.0f} Mb/s)",
        ]
        if self.live is not None:
            lines.append(
                f"live admission    : {self.live.admitted} admitted / "
                f"{self.live.denied} denied / "
                f"{self.live.deferrals} deferrals"
            )
        return "\n".join(lines)
