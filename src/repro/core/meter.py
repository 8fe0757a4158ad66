"""Hourly bandwidth metering.

Every load figure in the paper is an *hourly average rate*: "The data
rates sustained by the centralized servers and neighborhood networks for
each hour of the day are updated with each event" (section V-B).
:class:`HourlyMeter` accumulates bits into absolute-hour buckets;
deliveries spanning an hour boundary are split proportionally so each
bucket reflects exactly the bits that crossed the wire during it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import units
from repro.errors import SimulationError

_SECONDS_PER_HOUR = units.SECONDS_PER_HOUR


class HourlyMeter:
    """Accumulates transferred bits into per-hour buckets."""

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        self._bits: Dict[int, float] = defaultdict(float)

    def add_interval(self, start: float, duration_seconds: float,
                     rate_bps: float = units.STREAM_RATE_BPS) -> None:
        """Meter a constant-rate transfer over ``[start, start+duration)``.

        Splits the transfer across hour boundaries so hourly rates are
        exact regardless of where deliveries fall.  A 5-minute segment
        delivery usually sits inside one hour, so the single-bucket case
        is a branch and one dict update; the split loop only runs for
        genuinely boundary-crossing transfers.
        """
        if duration_seconds < 0:
            raise SimulationError(
                f"cannot meter a negative duration ({duration_seconds})"
            )
        if rate_bps < 0:
            raise SimulationError(f"cannot meter a negative rate ({rate_bps})")
        if duration_seconds == 0:
            # The split loop below never iterates for zero durations, so
            # the fast path must not materialize an empty bucket either.
            return
        hour = int(start // _SECONDS_PER_HOUR)
        span = (hour + 1) * _SECONDS_PER_HOUR - start
        if duration_seconds <= span:
            # Fast path: the whole transfer lands in one hour bucket.
            # ``span * rate`` with span == duration is the exact same
            # float product the split loop would compute, so fast and
            # slow paths are bit-identical.
            self._bits[hour] += duration_seconds * rate_bps
            return
        bits = self._bits
        remaining = duration_seconds
        cursor = start
        while remaining > 0:
            hour = int(cursor // _SECONDS_PER_HOUR)
            hour_end = (hour + 1) * _SECONDS_PER_HOUR
            span = min(remaining, hour_end - cursor)
            bits[hour] += span * rate_bps
            cursor += span
            remaining -= span

    def add_bits(self, time: float, bits: float) -> None:
        """Meter an instantaneous transfer of ``bits`` at ``time``."""
        if bits < 0:
            raise SimulationError(f"cannot meter negative bits ({bits})")
        self._bits[int(time // _SECONDS_PER_HOUR)] += bits

    def add_bits_bulk(self, hours: Iterable[int], bits_per_hour: Iterable[float]) -> None:
        """Accumulate pre-split ``(hour, bits)`` rows at once.

        For rows out of :func:`expand_intervals` after dense
        accumulation: already non-negative, hour-deduplicated, and
        zero-free.  This is a trusted path -- callers own the validation
        the per-call API performs.  Adding a batch sum to a bucket that
        already holds bits is not bit-identical to adding the rows one
        by one; the engines ingest through :func:`accumulate_rows`.
        """
        buckets = self._bits
        for hour, bits in zip(hours, bits_per_hour):
            buckets[hour] += bits

    def buckets(self) -> Dict[int, float]:
        """Plain ``{absolute hour: bits}`` snapshot (for tests/serialization)."""
        return dict(self._bits)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def total_bits(self) -> float:
        """All bits metered so far."""
        return sum(self._bits.values())

    def bits_in_hour(self, hour_index: int) -> float:
        """Bits metered during absolute hour ``hour_index``."""
        return self._bits.get(hour_index, 0.0)

    def rate_in_hour(self, hour_index: int) -> float:
        """Average bits/second during absolute hour ``hour_index``."""
        return self.bits_in_hour(hour_index) / units.SECONDS_PER_HOUR

    def hours(self) -> List[int]:
        """Absolute hour indices with any recorded traffic, sorted."""
        return sorted(self._bits)

    def hourly_rates(
        self,
        peak_hours: Iterable[int] = range(units.HOURS_PER_DAY),
        min_time: float = 0.0,
        max_time: float = math.inf,
    ) -> List[Tuple[int, float]]:
        """(absolute hour, rate) samples filtered by hour-of-day and window.

        ``peak_hours`` restricts to the given hour-of-day buckets;
        ``min_time`` / ``max_time`` (seconds) bound the absolute window --
        experiments use ``min_time`` to drop the cache warm-up.
        """
        wanted = set(peak_hours)
        lo = min_time / units.SECONDS_PER_HOUR
        hi = max_time / units.SECONDS_PER_HOUR
        samples = []
        for hour, bits in sorted(self._bits.items()):
            if hour < lo or hour >= hi:
                continue
            if hour % units.HOURS_PER_DAY in wanted:
                samples.append((hour, bits / units.SECONDS_PER_HOUR))
        return samples

    def mean_rate(
        self,
        peak_hours: Iterable[int] = range(units.HOURS_PER_DAY),
        min_time: float = 0.0,
        max_time: float = math.inf,
    ) -> float:
        """Mean of the filtered hourly rates (0.0 when nothing matches)."""
        samples = self.hourly_rates(peak_hours, min_time, max_time)
        if not samples:
            return 0.0
        return sum(rate for _, rate in samples) / len(samples)

    def rate_by_hour_of_day(self, min_time: float = 0.0) -> List[float]:
        """Average rate per hour-of-day bucket (the Fig 7 series).

        Buckets are averaged over the days each bucket actually appears
        in, so partial trailing days do not dilute the profile.
        """
        sums = [0.0] * units.HOURS_PER_DAY
        counts = [0] * units.HOURS_PER_DAY
        lo = min_time / units.SECONDS_PER_HOUR
        if not self._bits:
            return sums
        last_hour = max(self._bits)
        for hour in range(int(math.ceil(lo)), last_hour + 1):
            hod = hour % units.HOURS_PER_DAY
            sums[hod] += self._bits.get(hour, 0.0) / units.SECONDS_PER_HOUR
            counts[hod] += 1
        return [s / c if c else 0.0 for s, c in zip(sums, counts)]

    def merged_with(self, other: "HourlyMeter") -> "HourlyMeter":
        """A new meter holding the sum of both meters' buckets."""
        merged = HourlyMeter()
        for hour, bits in self._bits.items():
            merged._bits[hour] += bits
        for hour, bits in other._bits.items():
            merged._bits[hour] += bits
        return merged

    @classmethod
    def merged(cls, meters: Iterable["HourlyMeter"]) -> "HourlyMeter":
        """Fold several meters into one, meter by meter in given order.

        Each bucket accumulates its contributions in the iteration
        order of ``meters``.  This is the canonical reduction for
        per-neighborhood meters: both a monolithic run and a shard
        merge fold in ascending global neighborhood id, so the float
        additions happen in the identical sequence and the folded
        buckets are bit-identical regardless of how the run was
        partitioned.
        """
        out = cls()
        bits = out._bits
        for meter in meters:
            for hour, value in meter._bits.items():
                bits[hour] += value
        return out


def accumulate_rows(meters: Sequence[HourlyMeter], owners, hours, bits) -> None:
    """Add ``bits[i]`` to hour ``hours[i]`` of ``meters[owners[i]]``, in row order.

    The vectorized ingestion path for rows out of
    :func:`expand_intervals`.  Each touched bucket is seeded with its
    current value before an order-preserving scatter-add (``np.add.at``)
    and written back, so every bucket goes through the same float
    additions as one ``+=`` per row -- bit-identical to per-event
    :meth:`HourlyMeter.add_interval` calls however a row stream is cut
    into batches.  Adding per-batch partial sums instead would not be.
    """
    import numpy as np

    if not bits.size:
        return
    first = int(hours.min())
    span = int(hours.max()) - first + 1
    keys = owners * span + (hours - first)
    cells = np.flatnonzero(np.bincount(keys))
    owner_of = (cells // span).tolist()
    hour_of = (cells % span + first).tolist()
    dense = np.zeros(int(cells[-1]) + 1)
    dense[cells] = [meters[o]._bits.get(h, 0.0)
                    for o, h in zip(owner_of, hour_of)]
    np.add.at(dense, keys, bits)
    for o, h, value in zip(owner_of, hour_of, dense[cells].tolist()):
        meters[o]._bits[h] = value


def expand_intervals(starts, durations, rate_bps: float = units.STREAM_RATE_BPS):
    """Vectorized :meth:`HourlyMeter.add_interval` over event columns.

    Returns ``(event_ids, hours, bits)`` numpy arrays -- one row per
    (event, hour bucket) contribution, ordered event-major: all of event
    0's hour chunks in split order, then event 1's, and so on.  Each
    chunk's value is the identical float product the scalar meter
    computes, and the event-major order means an order-preserving
    scatter-add (``np.add.at``) accumulates every bucket through the
    same sequence of float additions as per-event ``add_interval`` calls
    in event order -- the bit-identity the columnar engine relies on.

    Why one loop covers both scalar paths: the scalar fast path (whole
    transfer inside one hour) adds ``duration * rate`` where the split
    loop's first chunk would add ``min(duration, span) * rate`` with
    ``min`` selecting ``duration`` -- the same product -- and the
    remainder ``duration - duration`` is exactly zero, ending the event.

    Trusted hot path: callers guarantee non-negative inputs (the drain
    loop already filters float-noise slivers).
    """
    import numpy as np

    cursor = np.asarray(starts, dtype=np.float64)
    remaining = np.asarray(durations, dtype=np.float64)
    n = cursor.size
    counts = np.zeros(n, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    chunks = []
    while ids.size:
        # Exact floor of cursor / 3600, matching Python's fmod-corrected
        # float ``//`` even when a cursor sits within a rounding error
        # of an hour boundary (np.floor alone can be off by one there).
        hour = np.floor(cursor / _SECONDS_PER_HOUR)
        hour[hour * _SECONDS_PER_HOUR > cursor] -= 1.0
        hour[(hour + 1.0) * _SECONDS_PER_HOUR <= cursor] += 1.0
        hour = hour.astype(np.int64)
        span = np.minimum(remaining, (hour + 1) * _SECONDS_PER_HOUR - cursor)
        chunks.append((ids, hour, span * rate_bps))
        counts[ids] += 1
        live = remaining > span
        ids = ids[live]
        cursor = cursor[live] + span[live]
        remaining = remaining[live] - span[live]

    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    event_ids = np.empty(total, dtype=np.int64)
    hours = np.empty(total, dtype=np.int64)
    bits = np.empty(total, dtype=np.float64)
    for iteration, (chunk_ids, chunk_hours, chunk_bits) in enumerate(chunks):
        at = offsets[chunk_ids] + iteration
        event_ids[at] = chunk_ids
        hours[at] = chunk_hours
        bits[at] = chunk_bits
    return event_ids, hours, bits
