"""Helpers for cache-strategy unit tests."""

from dataclasses import dataclass

from repro.cache.base import StrategyContext
from repro.cache.factory import (
    BuildInputs,
    BuiltStrategies,
    LFUSpec,
    LRUSpec,
    StrategySpec,
)
from repro.cache.global_lfu import GlobalLFUStrategy
from repro.cache.lfu import LFUStrategy
from repro.cache.lru import LRUStrategy


def bind(strategy, capacity=300.0, sizes=None, neighborhood_id=0):
    """Bind ``strategy`` to a synthetic context.

    ``sizes`` maps program ids to footprints; unlisted programs cost 100
    bytes, so the default 300-byte capacity holds exactly three programs.
    Returns the initial membership change.
    """
    sizes = sizes or {}

    def footprint_of(program_id):
        return float(sizes.get(program_id, 100.0))

    return strategy.bind(
        StrategyContext(
            neighborhood_id=neighborhood_id,
            capacity_bytes=float(capacity),
            footprint_of=footprint_of,
        )
    )


@dataclass(frozen=True)
class ClassicSpec(StrategySpec):
    """Builds an engine spec's pre-engine reference strategies.

    ``engine`` is an :class:`LRUSpec`, :class:`LFUSpec` or
    :class:`GlobalLFUSpec`; the build yields the classic push-on-change
    class with the same parameters (global LFU: one shared feed), which
    the equivalence tests run against the engine build.
    """

    engine: StrategySpec

    @property
    def label(self) -> str:
        return f"classic-{self.engine.label}"

    def build(self, inputs: BuildInputs) -> BuiltStrategies:
        spec, n = self.engine, inputs.n_neighborhoods
        if isinstance(spec, LRUSpec):
            return BuiltStrategies([LRUStrategy() for _ in range(n)])
        if isinstance(spec, LFUSpec):
            return BuiltStrategies(
                [LFUStrategy(spec.history_hours) for _ in range(n)])
        feed = spec.build(BuildInputs(n_neighborhoods=0)).feed
        return BuiltStrategies(
            [GlobalLFUStrategy(feed, i, spec.history_hours) for i in range(n)],
            feed=feed)
