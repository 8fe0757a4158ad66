"""Strategy interface for the neighborhood cooperative cache.

A *strategy* answers one question: which programs should this
neighborhood's cache hold right now?  It owns the membership set and its
byte accounting; the index server owns the physical consequences
(segment placement on peers).  Strategies are driven by access
notifications -- one per viewing session, matching the paper's
"the index server also monitors all requests in the neighborhood to
calculate file popularity" -- and report membership deltas for the index
server to apply.

Program sizes are *cache footprints*: whole segments, because placement
reserves whole segments (see :mod:`repro.cache.segments`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Sequence, Set

from repro.errors import CacheError


@dataclass(frozen=True)
class StrategyContext:
    """Facts a strategy needs to make membership decisions.

    Attributes
    ----------
    neighborhood_id:
        Which neighborhood this strategy instance serves (strategies are
        per-neighborhood; shared state, if any, lives in the spec).
    capacity_bytes:
        Usable cache capacity: the sum over peers of whole-segment
        multiples of their contributed storage.
    footprint_of:
        Maps a program id to its cache footprint in bytes.
    """

    neighborhood_id: int
    capacity_bytes: float
    footprint_of: Callable[[int], float]

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise CacheError(
                f"neighborhood {self.neighborhood_id}: capacity must be "
                f"non-negative, got {self.capacity_bytes}"
            )


@dataclass
class MembershipChange:
    """Delta produced by one access notification.

    ``evicted`` programs must be removed from peers before ``admitted``
    programs are placed (the index server relies on that ordering to have
    the bytes free).
    """

    admitted: Sequence[int] = field(default_factory=list)
    evicted: Sequence[int] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """True when the access changed nothing."""
        return not self.admitted and not self.evicted

    def __bool__(self) -> bool:
        return not self.empty


#: What an access that changes nothing returns: one shared instance, so
#: a no-op session start allocates nothing.  Its fields are tuples, so a
#: caller that tries to append to it fails loudly.
NO_CHANGE = MembershipChange(admitted=(), evicted=())


class CacheStrategy(ABC):
    """Base class for cache-membership policies.

    Lifecycle: construct, :meth:`bind` once with the neighborhood's
    context, then receive :meth:`on_access` for every session start in
    the neighborhood.  Implementations must keep ``used_bytes`` at or
    under ``capacity_bytes`` at all times.
    """

    #: Human-readable policy name (for reports and tables).
    name: str = "abstract"

    #: When True the index server treats admitted programs as fully
    #: stored immediately, without waiting for a broadcast to capture.
    #: Only the oracle sets this: the paper presents it as "an example of
    #: ideal cache performance" that is "impossible to implement", so it
    #: does not pay realistic fill costs.
    instant_fill: bool = False

    __slots__ = ("_context", "_members", "_used_bytes")

    def __init__(self) -> None:
        self._context: StrategyContext | None = None
        self._members: Set[int] = set()
        self._used_bytes = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, context: StrategyContext) -> MembershipChange:
        """Attach the strategy to its neighborhood.

        Returns an initial membership change (non-empty only for policies
        with a priori knowledge, e.g. the oracle pre-warming the cache).
        """
        if self._context is not None:
            raise CacheError(f"{self.name} strategy bound twice")
        self._context = context
        return self._on_bind()

    def _on_bind(self) -> MembershipChange:
        """Hook for subclasses; default does nothing."""
        return NO_CHANGE

    @property
    def context(self) -> StrategyContext:
        """The bound context (raises if :meth:`bind` has not run)."""
        if self._context is None:
            raise CacheError(f"{self.name} strategy used before bind()")
        return self._context

    # ------------------------------------------------------------------
    # Membership bookkeeping shared by all policies
    # ------------------------------------------------------------------

    @property
    def members(self) -> FrozenSet[int]:
        """Programs currently admitted to the cache."""
        return frozenset(self._members)

    @property
    def used_bytes(self) -> float:
        """Bytes of cache capacity currently committed."""
        return self._used_bytes

    @property
    def free_bytes(self) -> float:
        """Uncommitted cache capacity."""
        return self.context.capacity_bytes - self._used_bytes

    def __contains__(self, program_id: int) -> bool:
        return program_id in self._members

    def _admit(self, program_id: int) -> None:
        """Record ``program_id`` as a member, charging its footprint."""
        if program_id in self._members:
            raise CacheError(f"program {program_id} admitted twice")
        footprint = self.context.footprint_of(program_id)
        if footprint > self.free_bytes + 1e-6:
            raise CacheError(
                f"admitting program {program_id} ({footprint:.0f} B) would "
                f"overflow the cache ({self.free_bytes:.0f} B free)"
            )
        self._members.add(program_id)
        self._used_bytes += footprint

    def _evict(self, program_id: int) -> None:
        """Remove ``program_id``, refunding its footprint."""
        if program_id not in self._members:
            raise CacheError(f"evicting non-member program {program_id}")
        self._members.discard(program_id)
        self._used_bytes -= self.context.footprint_of(program_id)
        if self._used_bytes < -1e-6:  # pragma: no cover - accounting invariant
            raise CacheError("cache accounting went negative")
        self._used_bytes = max(self._used_bytes, 0.0)

    def force_evict(self, program_id: int) -> None:
        """Evict a member at the index server's demand.

        Used when physical placement of an admitted program fails so the
        strategy's accounting is rolled back to match reality.  Subclasses
        with auxiliary structures override :meth:`_on_force_evict`.
        """
        self._evict(program_id)
        self._on_force_evict(program_id)

    def _on_force_evict(self, program_id: int) -> None:
        """Hook to clean subclass bookkeeping after a forced eviction."""

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------

    @abstractmethod
    def on_access(self, now: float, program_id: int) -> MembershipChange:
        """Notify the strategy of a session start for ``program_id``.

        Returns the membership delta the index server must apply.
        """


class NullStrategy(CacheStrategy):
    """The no-cache baseline: never admits anything.

    Running the simulator with this policy reproduces the paper's
    "with no cache, central servers must support 17 Gb/s" reference line.
    """

    name = "none"

    __slots__ = ()

    def on_access(self, now: float, program_id: int) -> MembershipChange:
        return MembershipChange()
