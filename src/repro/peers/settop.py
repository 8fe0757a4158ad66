"""Set-top box resource model: disk budget and the two-channel limit.

Paper constraints (section V-C):

* "Set-top boxes have limited disk space ... we assume that set-top boxes
  will not be able to contribute more than 10 GB."
* "Typical set top boxes cannot receive data on more than two logical
  channels of the coaxial line ... we limit each set top box so that it
  can only be active on two streams.  The cache will trigger a miss if a
  segment is requested from a peer that has more than two active streams
  in either direction."

A box records only its bytes in use; the index server "keeps track of
where each program is located" (section IV-B.1), so the
:class:`~repro.cache.segments.PlacementMap` that owns a box's storage
keeps :attr:`SetTopBox.used_bytes` current and checks its capacity.

Stream occupancy is tracked as a list of lease end-times purged lazily
against the querying clock -- cheaper than scheduling a release event per
segment, and exact, because occupancy only matters at the instant a new
request arrives.
"""

from __future__ import annotations

from typing import List

from repro import units
from repro.errors import CapacityError


class SetTopBox:
    """One subscriber's set-top box acting as a cooperative-cache peer.

    Parameters
    ----------
    box_id:
        The owning subscriber's user id.
    storage_bytes:
        Disk space contributed to the neighborhood cache (default: the
        paper's 10 GB ceiling).
    max_streams:
        Concurrent logical channels (default 2, per the paper).
    """

    __slots__ = ("box_id", "storage_bytes", "max_streams", "used_bytes",
                 "_lease_ends")

    def __init__(
        self,
        box_id: int,
        storage_bytes: float = units.DEFAULT_PEER_STORAGE_BYTES,
        max_streams: int = units.MAX_STREAMS_PER_PEER,
    ) -> None:
        if storage_bytes < 0:
            raise CapacityError(
                f"box {box_id}: storage_bytes must be non-negative, got {storage_bytes}"
            )
        if max_streams < 1:
            raise CapacityError(
                f"box {box_id}: max_streams must be at least 1, got {max_streams}"
            )
        self.box_id = box_id
        self.storage_bytes = float(storage_bytes)
        self.max_streams = int(max_streams)
        #: Disk bytes holding cached segments: one whole segment per
        #: slot assigned by the owning placement map, its only writer.
        self.used_bytes: float = 0.0
        self._lease_ends: List[float] = []

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    @property
    def free_bytes(self) -> float:
        """Remaining contributable disk space."""
        return self.storage_bytes - self.used_bytes

    # ------------------------------------------------------------------
    # Stream (channel) accounting
    # ------------------------------------------------------------------

    def active_streams(self, now: float) -> int:
        """Streams still active at time ``now`` (expired leases purged).

        The lease list never exceeds a couple of entries (the channel
        limit plus the viewer's own stream), so an in-place sweep beats
        rebuilding the list -- this is called several times per segment
        delivery on the simulation hot path.
        """
        leases = self._lease_ends
        count = len(leases)
        if not count:
            return 0
        kept = 0
        for end in leases:
            if end > now:
                leases[kept] = end
                kept += 1
        if kept != count:
            del leases[kept:]
        return kept

    def can_open_stream(self, now: float) -> bool:
        """Whether a new stream may be opened without exceeding the limit."""
        return self.active_streams(now) < self.max_streams

    def try_open_stream(self, now: float, duration_seconds: float) -> bool:
        """Open a stream if a channel is free; one lease sweep total.

        The delivery hot path used to pay two sweeps per decision --
        ``can_open_stream`` followed by ``open_stream`` re-checking the
        limit it had just verified.  No simulated time passes between
        the two, so the second sweep can never change the answer; this
        fuses them.  Returns whether the lease was granted.
        """
        if duration_seconds <= 0:
            raise CapacityError(
                f"box {self.box_id}: stream duration must be positive, "
                f"got {duration_seconds}"
            )
        if self.active_streams(now) >= self.max_streams:
            return False
        self._lease_ends.append(now + duration_seconds)
        return True

    def grant_playback_lease(self, end_time: float) -> None:
        """Unconditionally lease a channel until ``end_time``.

        The columnar walk's spelling of
        ``open_stream(now, duration, enforce_limit=False)`` for the
        viewer's own playback stream, with the ``now + duration`` sum
        hoisted into the engine's precomputed session-end column: the
        index server never denies a subscriber their own session, so no
        sweep and no limit check are needed.
        """
        self._lease_ends.append(end_time)

    def open_stream(self, now: float, duration_seconds: float,
                    enforce_limit: bool = True) -> float:
        """Occupy one channel for ``duration_seconds`` starting at ``now``.

        Returns the lease end time.

        Parameters
        ----------
        enforce_limit:
            When ``True`` (serving and cache-fill reads), exceeding the
            channel budget raises :class:`~repro.errors.CapacityError`.
            When ``False`` (the subscriber's own playback -- the index
            server never denies a viewer their stream), the lease is
            granted regardless and simply counted.
        """
        if duration_seconds <= 0:
            raise CapacityError(
                f"box {self.box_id}: stream duration must be positive, "
                f"got {duration_seconds}"
            )
        if enforce_limit and not self.can_open_stream(now):
            raise CapacityError(
                f"box {self.box_id}: all {self.max_streams} channels busy at t={now:.1f}"
            )
        end_time = now + duration_seconds
        self._lease_ends.append(end_time)
        return end_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetTopBox(id={self.box_id}, used={self.used_bytes / 1e9:.2f}GB"
            f"/{self.storage_bytes / 1e9:.0f}GB, leases={len(self._lease_ends)})"
        )
