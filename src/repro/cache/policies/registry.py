"""Decorator-based registry of cache-policy strategy specs.

Every config-level :class:`~repro.cache.factory.StrategySpec` registers
itself under a short CLI name::

    @policy("lru", summary="recency queue, unconditional admission")
    @dataclass(frozen=True)
    class LRUSpec(StrategySpec):
        ...

:func:`~repro.cache.factory.spec_from_name` and the CLI's
``list-strategies`` subcommand resolve names through this table, so the
set of runnable strategies is exactly the set of registered specs --
there is no hand-maintained duplicate list to drift out of date.

Spec parameters are introspected from the dataclass fields, so the CLI
listing always shows the real constructor surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Type, TypeVar

from repro.errors import ConfigurationError, suggest

SpecClass = TypeVar("SpecClass", bound=type)


@dataclass(frozen=True)
class PolicyInfo:
    """One registered policy family: name, spec class, description."""

    name: str
    spec_class: type
    summary: str

    @property
    def label(self) -> str:
        """Default-parameter label (what experiment tables print)."""
        return self.spec_class().label

    def parameters(self) -> List[Tuple[str, object]]:
        """``(field, default)`` pairs of the spec's dataclass surface."""
        params: List[Tuple[str, object]] = []
        for field in dataclasses.fields(self.spec_class):
            if not field.init:
                continue
            if field.default is not dataclasses.MISSING:
                default = field.default
            elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                default = field.default_factory()  # type: ignore[misc]
            else:
                default = "<required>"
            params.append((field.name, default))
        return params


_REGISTRY: Dict[str, PolicyInfo] = {}


def policy(name: str, summary: str = "") -> Callable[[SpecClass], SpecClass]:
    """Class decorator registering a strategy spec under ``name``."""

    def register(spec_class: SpecClass) -> SpecClass:
        if name in _REGISTRY:
            raise ConfigurationError(
                f"policy {name!r} registered twice "
                f"({_REGISTRY[name].spec_class.__name__} and "
                f"{spec_class.__name__})"
            )
        doc = (spec_class.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = PolicyInfo(
            name=name,
            spec_class=spec_class,
            summary=summary or (doc[0] if doc else ""),
        )
        spec_class.policy_name = name
        return spec_class

    return register


def policy_names() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)


def get_policy(name: str) -> PolicyInfo:
    """Look up one registered policy family.

    Raises
    ------
    ConfigurationError
        For unknown names, listing the registered ones.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}{suggest(name, policy_names())} "
            f"(choose from {policy_names()})"
        ) from None


def iter_policies() -> List[PolicyInfo]:
    """All registered policy families, in name order."""
    return [_REGISTRY[name] for name in policy_names()]


#: Eviction families buildable by short name with default parameters --
#: the composition surface admission filters (``threshold``) resolve
#: through.  Populated by the ``@eviction_family`` decorator so it can
#: never drift from the classes that actually exist; families needing
#: construction context (the global-LFU feed) stay out by simply not
#: registering.
_EVICTION_FAMILIES: Dict[str, type] = {}


def eviction_family(name: str) -> Callable[[SpecClass], SpecClass]:
    """Class decorator registering a default-constructible eviction policy."""

    def register(eviction_class: SpecClass) -> SpecClass:
        if name in _EVICTION_FAMILIES:
            raise ConfigurationError(
                f"eviction family {name!r} registered twice "
                f"({_EVICTION_FAMILIES[name].__name__} and "
                f"{eviction_class.__name__})"
            )
        _EVICTION_FAMILIES[name] = eviction_class
        eviction_class.name = name
        return eviction_class

    return register


#: Live admission-side policies (:mod:`repro.live`): the overload
#: throttle and fairness-scheduler specs that gate *session starts* in
#: front of the index server, as opposed to the cache policies above
#: that gate *program placement* behind it.  Same registration idiom,
#: separate namespace -- an admission policy is not a runnable cache
#: strategy and must not leak into ``spec_from_name``.
_LIVE_ADMISSIONS: Dict[str, PolicyInfo] = {}


def live_admission(name: str, summary: str = "") -> Callable[[SpecClass], SpecClass]:
    """Class decorator registering a live admission spec under ``name``."""

    def register(spec_class: SpecClass) -> SpecClass:
        if name in _LIVE_ADMISSIONS:
            raise ConfigurationError(
                f"live admission policy {name!r} registered twice "
                f"({_LIVE_ADMISSIONS[name].spec_class.__name__} and "
                f"{spec_class.__name__})"
            )
        doc = (spec_class.__doc__ or "").strip().splitlines()
        _LIVE_ADMISSIONS[name] = PolicyInfo(
            name=name,
            spec_class=spec_class,
            summary=summary or (doc[0] if doc else ""),
        )
        spec_class.policy_name = name
        return spec_class

    return register


def _live_table() -> Dict[str, PolicyInfo]:
    """The live table with registrations guaranteed to have run.

    The spec classes live in :mod:`repro.live.specs`; importing it here
    (lazily, to keep this module import-cycle-free) makes lookups work
    no matter which package the caller entered through.
    """
    import repro.live.specs  # noqa: F401  (registration side effect)

    return _LIVE_ADMISSIONS


def live_admission_names() -> List[str]:
    """Registered live admission policy names, sorted."""
    return sorted(_live_table())


def get_live_admission(name: str) -> PolicyInfo:
    """Look up one registered live admission policy family.

    Raises
    ------
    ConfigurationError
        For unknown names, listing the registered ones.
    """
    table = _live_table()
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown live admission policy {name!r}"
            f"{suggest(name, live_admission_names())} "
            f"(choose from {live_admission_names()})"
        ) from None


def iter_live_admissions() -> List[PolicyInfo]:
    """All registered live admission policy families, in name order."""
    return [_LIVE_ADMISSIONS[name] for name in live_admission_names()]


def named_eviction(name: str):
    """Build a default-parameter eviction policy by short name."""
    try:
        family = _EVICTION_FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown eviction policy {name!r}"
            f"{suggest(name, eviction_names())} "
            f"(choose from {eviction_names()})"
        ) from None
    return family()


def eviction_names() -> List[str]:
    """Short names accepted by :func:`named_eviction`, sorted."""
    return sorted(_EVICTION_FAMILIES)
