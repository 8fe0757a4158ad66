"""Config-level strategy specifications.

A :class:`StrategySpec` is a small, immutable description of a caching
policy that a :class:`~repro.core.config.SimulationConfig` can carry
around, serialize into experiment labels, and instantiate once per
neighborhood at system-build time.  Specs isolate the simulator from
policy constructor signatures (the oracle needs future knowledge, the
global LFU needs a shared feed, ...).

Every spec registers itself in the policy registry
(:mod:`repro.cache.policies.registry`) via the ``@policy`` decorator;
:func:`spec_from_name` and the CLI's ``list-strategies`` subcommand
resolve that table dynamically, so adding a spec here is all it takes
to make a strategy runnable everywhere.

Every build runs on the policy engine
(:class:`~repro.cache.policies.api.PolicyStrategy`) -- except the
oracle, which needs its future schedule.  The original push-on-change
strategies (:mod:`repro.cache.lru`, :mod:`repro.cache.lfu`,
:mod:`repro.cache.global_lfu`) are no longer reachable from a spec; the
equivalence tests build them directly as the bit-identical reference.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import units
from repro.cache.base import CacheStrategy, NullStrategy
from repro.cache.global_lfu import GlobalPopularityFeed
from repro.cache.lfu import LFUStrategy
from repro.cache.oracle import OracleStrategy
from repro.cache.policies import (
    ARCEviction,
    AlwaysAdmit,
    FrequencySketchAdmission,
    GDSFEviction,
    GlobalLFUEviction,
    LFUEviction,
    LRUEviction,
    PolicyStrategy,
    ThresholdAdmission,
    get_policy,
    named_eviction,
    policy,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BuildInputs:
    """Everything a spec may need to construct per-neighborhood strategies.

    Attributes
    ----------
    n_neighborhoods:
        How many strategy instances to build.
    future_accesses:
        Per-neighborhood ``program_id -> sorted session start times``;
        populated by the runner only when
        :attr:`StrategySpec.requires_future_knowledge` is set.
    """

    n_neighborhoods: int
    future_accesses: Optional[Sequence[Dict[int, List[float]]]] = None


@dataclass(frozen=True)
class BuiltStrategies:
    """Result of building a spec: one strategy per neighborhood.

    ``feed`` is the shared cross-neighborhood popularity feed, present
    only for global-LFU builds; the simulator must push *every* session
    into it.
    """

    strategies: List[CacheStrategy]
    feed: Optional[GlobalPopularityFeed] = None


class StrategySpec(ABC):
    """Immutable description of a caching policy."""

    __slots__ = ()

    #: Set by specs whose strategies need the full future access schedule.
    requires_future_knowledge: bool = False

    #: Set by specs whose strategies share one cross-neighborhood
    #: popularity feed (:class:`GlobalPopularityFeed`).  Such builds
    #: couple every neighborhood through mutable state, so a metro run
    #: cannot be partitioned into independent shards.
    uses_global_feed: bool = False

    @property
    @abstractmethod
    def label(self) -> str:
        """Short human-readable identifier for tables and legends."""

    @abstractmethod
    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        """Instantiate one strategy per neighborhood."""


@policy("none", summary="no cache: the paper's 17 Gb/s reference line")
@dataclass(frozen=True)
class NoCacheSpec(StrategySpec):
    """The paper's no-cache reference line."""

    @property
    def label(self) -> str:
        return "none"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([NullStrategy() for _ in range(inputs.n_neighborhoods)])


@policy("lru", summary="recency queue, unconditional admission (IV-B.2)")
@dataclass(frozen=True)
class LRUSpec(StrategySpec):
    """Least-recently-used membership (paper section IV-B.2)."""

    @property
    def label(self) -> str:
        return "lru"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([
            PolicyStrategy(AlwaysAdmit(), LRUEviction())
            for _ in range(inputs.n_neighborhoods)
        ])


@policy("lfu", summary="windowed frequency ranking, LRU tie-break (IV-B.2)")
@dataclass(frozen=True)
class LFUSpec(StrategySpec):
    """Sliding-window LFU (paper section IV-B.2, swept in Fig 11)."""

    history_hours: Optional[float] = LFUStrategy.DEFAULT_HISTORY_HOURS

    @property
    def label(self) -> str:
        if self.history_hours is None:
            return "lfu(inf)"
        return f"lfu({self.history_hours:g}h)"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([
            PolicyStrategy(AlwaysAdmit(), LFUEviction(self.history_hours))
            for _ in range(inputs.n_neighborhoods)
        ])


@policy("oracle", summary="future-knowledge ideal benchmark (VI-A)")
@dataclass(frozen=True)
class OracleSpec(StrategySpec):
    """Future-knowledge benchmark (paper section VI-A)."""

    window_days: float = 3.0
    recompute_hours: float = 6.0
    requires_future_knowledge = True

    @property
    def label(self) -> str:
        return f"oracle({self.window_days:g}d)"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        if inputs.future_accesses is None:
            raise ConfigurationError(
                "OracleSpec.build needs per-neighborhood future access "
                "schedules; the runner must supply them"
            )
        if len(inputs.future_accesses) != inputs.n_neighborhoods:
            raise ConfigurationError(
                f"got futures for {len(inputs.future_accesses)} neighborhoods, "
                f"expected {inputs.n_neighborhoods}"
            )
        strategies: List[CacheStrategy] = [
            OracleStrategy(
                future_accesses=futures,
                window_days=self.window_days,
                recompute_hours=self.recompute_hours,
            )
            for futures in inputs.future_accesses
        ]
        return BuiltStrategies(strategies)


@policy("global-lfu", summary="LFU blending the system-wide feed (Fig 13)")
@dataclass(frozen=True)
class GlobalLFUSpec(StrategySpec):
    """LFU with system-wide popularity data (paper Fig 13).

    ``lag_seconds=0`` is the "Global" bar; 1,800 and 7,200 are the
    "30 minute lag" and "2 hour lag" bars.
    """

    history_hours: Optional[float] = LFUStrategy.DEFAULT_HISTORY_HOURS
    lag_seconds: float = 0.0

    uses_global_feed = True

    @property
    def label(self) -> str:
        history = "inf" if self.history_hours is None else f"{self.history_hours:g}h"
        if self.lag_seconds:
            return f"global-lfu({history}, lag={self.lag_seconds / 60:g}m)"
        return f"global-lfu({history})"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        window = (
            None
            if self.history_hours is None
            else self.history_hours * units.SECONDS_PER_HOUR
        )
        feed = GlobalPopularityFeed(window_seconds=window, lag_seconds=self.lag_seconds)
        return BuiltStrategies([
            PolicyStrategy(
                AlwaysAdmit(),
                GlobalLFUEviction(feed, neighborhood_id, self.history_hours),
            )
            for neighborhood_id in range(inputs.n_neighborhoods)
        ], feed=feed)


@policy("gdsf", summary="size-aware frequency: small-and-popular wins")
@dataclass(frozen=True)
class GDSFSpec(StrategySpec):
    """Greedy-Dual-Size-Frequency over the sliding history window."""

    history_hours: Optional[float] = LFUStrategy.DEFAULT_HISTORY_HOURS

    @property
    def label(self) -> str:
        if self.history_hours is None:
            return "gdsf(inf)"
        return f"gdsf({self.history_hours:g}h)"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([
            PolicyStrategy(AlwaysAdmit(), GDSFEviction(self.history_hours))
            for _ in range(inputs.n_neighborhoods)
        ])


@policy("arc", summary="adaptive recency/frequency split with ghost lists")
@dataclass(frozen=True)
class ARCSpec(StrategySpec):
    """ARC-style adaptive policy: no history-length knob to tune.

    ``ghost_budget`` caps each ghost list at that fraction of cache
    capacity (1.0 = canonical ARC); it is the family's one sweepable
    parameter (see ``examples/scenarios/arc_ghost_sweep.json``).
    """

    ghost_budget: float = 1.0

    @property
    def label(self) -> str:
        if self.ghost_budget == 1.0:
            return "arc"
        return f"arc(g={self.ghost_budget:g})"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([
            PolicyStrategy(AlwaysAdmit(), ARCEviction(self.ghost_budget))
            for _ in range(inputs.n_neighborhoods)
        ])


@policy("threshold", summary="popularity-gated admission over any eviction")
@dataclass(frozen=True)
class ThresholdSpec(StrategySpec):
    """Admission filtered by a popularity threshold, any eviction family.

    ``eviction`` names the family that owns the ranking (``lru``,
    ``lfu``, ``gdsf`` or ``arc``); admission waits for ``min_accesses``
    inside ``window_hours`` before a program may enter.
    """

    min_accesses: int = 2
    window_hours: Optional[float] = 24.0
    eviction: str = "lru"

    @property
    def label(self) -> str:
        window = "inf" if self.window_hours is None else f"{self.window_hours:g}h"
        return f"thr({self.min_accesses}@{window})+{self.eviction}"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([
            PolicyStrategy(
                ThresholdAdmission(self.min_accesses, self.window_hours),
                named_eviction(self.eviction),
            )
            for _ in range(inputs.n_neighborhoods)
        ])


@policy("frequency-sketch",
        summary="TinyLFU-style sketch-gated admission over any eviction")
@dataclass(frozen=True)
class FrequencySketchSpec(StrategySpec):
    """Admission gated by a count-min sketch estimate (TinyLFU-style).

    The O(1)-memory cousin of :class:`ThresholdSpec`: a program enters
    once its sketch estimate reaches ``min_estimate``; all counters
    halve every ``decay_accesses`` observations so stale popularity
    fades.  ``eviction`` names the family that owns the ranking.
    """

    min_estimate: int = 2
    width: int = 1024
    depth: int = 4
    decay_accesses: int = 8192
    eviction: str = "lru"

    @property
    def label(self) -> str:
        return f"sketch({self.min_estimate})+{self.eviction}"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        return BuiltStrategies([
            PolicyStrategy(
                FrequencySketchAdmission(
                    min_estimate=self.min_estimate,
                    width=self.width,
                    depth=self.depth,
                    decay_accesses=self.decay_accesses,
                ),
                named_eviction(self.eviction),
            )
            for _ in range(inputs.n_neighborhoods)
        ])


# ---------------------------------------------------------------------------
# Name / dict serialization (the scenario layer's strategy wire format)
# ---------------------------------------------------------------------------


def _spec_fields(spec_class: type) -> List[dataclasses.Field]:
    """The spec's tunable dataclass fields, in declaration order."""
    return [field for field in dataclasses.fields(spec_class) if field.init]


def _coerce_arg(raw: str) -> object:
    """Interpret one ``name:arg`` token (int, float, None, or string)."""
    lowered = raw.lower()
    if lowered in ("none", "null", "inf"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def spec_from_name(name: str) -> StrategySpec:
    """Build a spec from a registered short name, with optional args.

    The accepted names are exactly the policy registry's contents (see
    ``repro-vod list-strategies``); unknown names raise with that list
    and a close-match suggestion.  A ``:`` introduces parameters --
    positional (in dataclass field order) or ``key=value``, comma
    separated::

        spec_from_name("lfu")                      # LFUSpec()
        spec_from_name("lfu:72")                   # LFUSpec(history_hours=72)
        spec_from_name("lfu:inf")                  # LFUSpec(history_hours=None)
        spec_from_name("threshold:3,24,gdsf")      # positional
        spec_from_name("threshold:eviction=gdsf")  # keyword
    """
    base, _, argstr = name.partition(":")
    info = get_policy(base.strip())
    if not argstr.strip():
        return info.spec_class()
    fields = _spec_fields(info.spec_class)
    names = [field.name for field in fields]
    kwargs: Dict[str, object] = {}
    for position, token in enumerate(argstr.split(",")):
        token = token.strip()
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip()
            if key not in names:
                raise ConfigurationError(
                    f"strategy {base!r} has no parameter {key!r} "
                    f"(have {names})"
                )
        else:
            if position >= len(fields):
                raise ConfigurationError(
                    f"strategy {base!r} takes at most {len(fields)} "
                    f"parameters ({names}), got extra {token!r}"
                )
            key, raw = fields[position].name, token
        if key in kwargs:
            raise ConfigurationError(
                f"strategy {base!r} parameter {key!r} given twice in {name!r}"
            )
        kwargs[key] = _coerce_arg(raw.strip())
    return info.spec_class(**kwargs)


def spec_to_dict(spec: StrategySpec) -> Dict[str, object]:
    """Serialize a spec to a plain dict: registry name + non-default fields.

    The inverse of :func:`spec_from_dict` (and of :func:`spec_from_name`
    for default parameters): reconstructing from the dict yields an
    equal spec for every registered family, which is what makes
    scenario/sweep JSON files lossless.
    """
    name = getattr(spec, "policy_name", None)
    if name is None:
        raise ConfigurationError(
            f"{type(spec).__name__} is not a registered policy spec; "
            f"register it with @policy to make it serializable"
        )
    payload: Dict[str, object] = {"name": name}
    for field in dataclasses.fields(spec):
        if not field.init:
            continue
        value = getattr(spec, field.name)
        if field.default is not dataclasses.MISSING and value == field.default:
            continue
        payload[field.name] = value
    return payload


def spec_from_dict(payload: Dict[str, object]) -> StrategySpec:
    """Rebuild a spec from its :func:`spec_to_dict` form."""
    if not isinstance(payload, dict) or "name" not in payload:
        raise ConfigurationError(
            f"a strategy dict needs a 'name' key, got {payload!r}"
        )
    params = dict(payload)
    info = get_policy(str(params.pop("name")))
    valid = {field.name for field in _spec_fields(info.spec_class)}
    unknown = sorted(set(params) - valid)
    if unknown:
        raise ConfigurationError(
            f"strategy {info.name!r} has no parameters {unknown} "
            f"(have {sorted(valid)})"
        )
    return info.spec_class(**params)
