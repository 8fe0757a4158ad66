"""The policy engine's two-sided protocol: admission and eviction.

The paper's cache algorithms (section IV-B.2) all answer the same two
questions on every session start:

1. *Admission* -- is this program even a candidate for the cache?
2. *Eviction* -- which current members should make room for it?

:class:`PolicyStrategy` is the engine that drives one
:class:`AdmissionPolicy` and one :class:`EvictionPolicy` through the
shared :class:`~repro.cache.base.CacheStrategy` accounting.  Splitting
the two concerns makes them independently composable: the
popularity-threshold filter (:mod:`repro.cache.policies.admission`)
works in front of *any* eviction family, and new eviction families
(GDSF, ARC) plug in without touching admission or byte accounting.

Engine contract, in order, for one ``on_access(now, program_id)``:

* both policies ``observe`` the access (popularity models advance and
  record here, exactly once, admission first);
* a current member is ``touch``-ed on the eviction side and the access
  changes nothing else;
* a program whose footprint exceeds total capacity is never admitted
  (it could not fit even in an empty cache);
* the admission policy may veto (``should_admit``);
* if the newcomer does not fit in free space, the eviction policy must
  ``plan`` victims freeing at least the shortfall, or return ``None``
  to reject the admission with **no observable side effects**;
* victims are evicted (``on_evict`` per victim) strictly before the
  newcomer is admitted (``on_admit``) -- the index server relies on
  that ordering to have the bytes free;
* an access that admits nothing returns the shared, immutable
  :data:`~repro.cache.base.NO_CHANGE`, so it allocates no delta.

Every policy sees the engine itself (as a :class:`PolicyHost`) at
``bind`` time, giving it read access to membership, byte accounting and
program footprints without owning any of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.cache.base import NO_CHANGE, CacheStrategy, MembershipChange


class AdmissionPolicy(ABC):
    """Decides whether a non-member program may enter the cache."""

    #: Short identifier used in composed strategy names.
    name: str = "admission"

    __slots__ = ("_host",)

    def bind(self, host: "PolicyStrategy") -> None:
        """Attach to the engine; called once, before any access."""
        self._host = host

    def observe(self, now: float, program_id: int) -> None:
        """See one access (popularity bookkeeping); default: stateless."""

    @abstractmethod
    def should_admit(self, now: float, program_id: int) -> bool:
        """Whether ``program_id`` may be admitted right now."""


class EvictionPolicy(ABC):
    """Ranks members for eviction and plans space for newcomers."""

    #: Short identifier used in composed strategy names.
    name: str = "eviction"

    __slots__ = ("_host",)

    def bind(self, host: "PolicyStrategy") -> None:
        """Attach to the engine; called once, before any access."""
        self._host = host

    def observe(self, now: float, program_id: int) -> None:
        """See one access (popularity bookkeeping); default: stateless."""

    def touch(self, now: float, program_id: int) -> None:
        """A current member was accessed; refresh its rank."""

    @abstractmethod
    def plan(self, now: float, program_id: int,
             need_bytes: float) -> Optional[List[int]]:
        """Choose victims freeing at least ``need_bytes`` for a newcomer.

        Returns the victim ids in eviction order, or ``None`` to reject
        the admission.  A rejected plan must leave the policy's internal
        state exactly as it found it.
        """

    def on_admit(self, now: float, program_id: int) -> None:
        """``program_id`` just became a member."""

    def on_evict(self, program_id: int) -> None:
        """``program_id`` just left (planned or forced eviction)."""


class PolicyStrategy(CacheStrategy):
    """Cache strategy composed from one admission + one eviction policy.

    This is the engine every registry-built strategy runs on (the oracle
    excepted -- its schedule-driven recompute fits neither interface and
    stays a bespoke :class:`~repro.cache.base.CacheStrategy`).
    """

    __slots__ = ("_admission", "_eviction", "name", "_admission_observe",
                 "_eviction_observe", "_admission_vetoes")

    def __init__(self, admission: AdmissionPolicy,
                 eviction: EvictionPolicy) -> None:
        super().__init__()
        self._admission = admission
        self._eviction = eviction
        self.name = f"{eviction.name}" if isinstance(admission, _AlwaysAdmitMarker) \
            else f"{admission.name}+{eviction.name}"
        # Hot-path dispatch elision: on_access runs once per session
        # start across the whole simulation, so no-op hooks (AlwaysAdmit
        # observes nothing and never vetoes; LRU inherits the no-op
        # observe) are detected once here -- by checking for an actual
        # override -- instead of being called every access.
        self._admission_observe = (
            admission.observe
            if type(admission).observe is not AdmissionPolicy.observe
            else None
        )
        self._eviction_observe = (
            eviction.observe
            if type(eviction).observe is not EvictionPolicy.observe
            else None
        )
        self._admission_vetoes = not isinstance(admission, _AlwaysAdmitMarker)

    @property
    def admission(self) -> AdmissionPolicy:
        """The admission side of the composed policy."""
        return self._admission

    @property
    def eviction(self) -> EvictionPolicy:
        """The eviction side of the composed policy."""
        return self._eviction

    def _on_bind(self) -> MembershipChange:
        self._admission.bind(self)
        self._eviction.bind(self)
        return NO_CHANGE

    def on_access(self, now: float, program_id: int) -> MembershipChange:
        observe = self._admission_observe
        if observe is not None:
            observe(now, program_id)
        observe = self._eviction_observe
        if observe is not None:
            observe(now, program_id)
        if program_id in self._members:
            self._eviction.touch(now, program_id)
            return NO_CHANGE

        context = self._context
        if context is None:
            context = self.context  # raises CacheError naming the policy
        footprint = context.footprint_of(program_id)
        if footprint > context.capacity_bytes:
            return NO_CHANGE
        if (self._admission_vetoes
                and not self._admission.should_admit(now, program_id)):
            return NO_CHANGE

        evicted: List[int] = []
        need = footprint - (context.capacity_bytes - self._used_bytes)
        if need > 0:
            victims = self._eviction.plan(now, program_id, need)
            if victims is None:
                return NO_CHANGE
            for victim_id in victims:
                self._evict(victim_id)
                self._eviction.on_evict(victim_id)
                evicted.append(victim_id)
        self._admit(program_id)
        self._eviction.on_admit(now, program_id)
        return MembershipChange(admitted=[program_id], evicted=evicted)

    def _on_force_evict(self, program_id: int) -> None:
        self._eviction.on_evict(program_id)


class _AlwaysAdmitMarker:
    """Mixin marker: admission policies that never veto.

    Lets :class:`PolicyStrategy` name pure-eviction compositions by the
    eviction side alone (``lru`` instead of ``always+lru``).
    """

    __slots__ = ()
