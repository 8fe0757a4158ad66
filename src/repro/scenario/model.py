"""The :class:`Scenario`: one simulator execution as a plain value.

A scenario bundles everything a run needs -- the seeded workload model,
the :class:`~repro.core.config.SimulationConfig`, the event-engine
choice, an optional seed override, a label, the scale factor that
extrapolates measured rates back to paper scale, the section V-A trace
transforms (``population_x`` / ``catalog_x``), and the named baseline
and metric sets merged into its result rows.  It is frozen, validated
eagerly, and round-trips losslessly through plain dicts and JSON
(strategy specs serialize by their policy-registry names), so the same
object works as a Python value, a CLI file, and a sweep template.

Serialization convention: ``to_dict`` emits the identity fields of each
component plus every field that differs from its default, so files stay
readable while ``from_dict(to_dict(x)) == x`` holds exactly.  JSON
arrays come back as the tuples the dataclasses expect.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.baselines.registry import validate_baselines
from repro.cache.factory import (
    StrategySpec,
    spec_from_dict,
    spec_from_name,
    spec_to_dict,
)
from repro.core.config import SimulationConfig
from repro.core.system import ENGINE_MODES
from repro.errors import ConfigurationError
from repro.live.specs import (
    FairnessSpec,
    ThrottleSpec,
    coerce_live_spec,
    live_spec_to_dict,
)
from repro.scenario.metrics import validate_metrics
from repro.trace.families import WorkloadModel
from repro.trace.families import spec_from_dict as family_spec_from_dict
from repro.trace.families import spec_to_dict as family_spec_to_dict
from repro.trace.workload import Workload


#: Config fields serialized even when they equal their defaults -- the
#: identity of a deployment a reader wants to see.  (The workload-side
#: equivalent lives on each family spec as ``serialize_always``.)
_CONFIG_ALWAYS = ("neighborhood_size", "per_peer_storage_gb", "strategy")


def coerce_strategy(value: Union[str, Dict[str, Any], StrategySpec]) -> StrategySpec:
    """Accept a spec, a registry name (``"lfu:72"``), or a spec dict."""
    if isinstance(value, StrategySpec):
        return value
    if isinstance(value, str):
        return spec_from_name(value)
    if isinstance(value, dict):
        return spec_from_dict(value)
    raise ConfigurationError(
        f"a strategy must be a spec, a registered name, or a dict, "
        f"got {value!r}"
    )


def _tuple_fields(cls: type) -> set:
    """Dataclass fields declared as tuples (JSON hands us lists)."""
    return {
        f.name for f in dataclasses.fields(cls)
        if "Tuple" in str(f.type) or "tuple" in str(f.type)
    }


def _component_to_dict(value: Any, always: tuple) -> Dict[str, Any]:
    """Identity fields plus non-default fields, in declaration order."""
    payload: Dict[str, Any] = {}
    for f in dataclasses.fields(value):
        if not f.init:
            continue
        current = getattr(value, f.name)
        if f.name in always:
            payload[f.name] = current
            continue
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f.default_factory()  # type: ignore[misc]
        else:  # pragma: no cover - all component fields have defaults
            default = dataclasses.MISSING
        if current != default:
            payload[f.name] = current
    return payload


def _component_from_dict(cls: type, payload: Dict[str, Any],
                         what: str) -> Any:
    """Rebuild a component dataclass, coercing JSON types."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{what} must be a dict, got {payload!r}")
    valid = {f.name for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(payload) - valid)
    if unknown:
        raise ConfigurationError(
            f"{what} has no fields {unknown} (have {sorted(valid)})"
        )
    tuples = _tuple_fields(cls)
    kwargs: Dict[str, Any] = {}
    for key, value in payload.items():
        if key in tuples and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def model_to_dict(model: WorkloadModel) -> Dict[str, Any]:
    """Serialize a workload model (family + identity + non-default fields).

    Delegates to the family registry
    (:func:`repro.trace.families.spec_to_dict`); ``powerinfo`` specs
    keep the pre-registry wire format (no ``family`` key).
    """
    return family_spec_to_dict(model)


def model_from_dict(payload: Dict[str, Any]) -> WorkloadModel:
    """Rebuild a workload model from its :func:`model_to_dict` form.

    A missing ``family`` key means ``powerinfo``; unknown family names
    and unknown fields raise :class:`~repro.errors.ConfigurationError`
    with close-match suggestions.
    """
    return family_spec_from_dict(payload)


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """Serialize a simulation config; the strategy goes by registry name."""
    payload = _component_to_dict(config, _CONFIG_ALWAYS)
    payload["strategy"] = spec_to_dict(config.strategy)
    return payload


def config_from_dict(payload: Dict[str, Any]) -> SimulationConfig:
    """Rebuild a simulation config from its :func:`config_to_dict` form."""
    if isinstance(payload, dict) and "strategy" in payload:
        payload = dict(payload)
        payload["strategy"] = coerce_strategy(payload["strategy"])
    return _component_from_dict(SimulationConfig, payload, "config")


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulator execution.

    Attributes
    ----------
    trace:
        The workload model the run replays: any registered family spec
        (:mod:`repro.trace.families` -- ``powerinfo``, ``trace-driven``,
        ``cdf``, the stress shapes...).
    config:
        Deployment and policy knobs (neighborhood, storage, strategy).
    engine:
        Event-engine path: ``"bucket"`` (default; the only engine live
        replays drain on) or ``"columnar"`` (vectorized; silently falls
        back to ``bucket`` when numpy is unavailable).
        Both are bit-identical, so the choice only affects speed.
    seed:
        Optional workload-seed override; ``None`` uses ``trace.seed``.
        Sweeping this axis re-runs one scenario over fresh workloads.
    label:
        Free-form name used in tables and file listings.
    scale:
        Population scale factor of the workload relative to paper scale;
        measured rates are divided by it when rows are built (the
        Fig 16b linearity the experiment profiles rely on).
    population_x / catalog_x:
        The paper's section V-A trace transforms as integer multipliers
        (population copies with jittered starts, catalog copies with
        randomized redirection), applied on top of the generated base
        trace via :mod:`repro.trace.scaling`.  ``1`` = untransformed.
        Sweep axes can address these directly, which is how the
        scalability grid varies the *workload*, not just the config.
    baselines:
        Names of baseline metrics (:mod:`repro.baselines.registry`,
        e.g. ``"no_cache"``, ``"multicast"``) computed once per distinct
        transformed trace and merged into this scenario's result rows;
        rate columns are extrapolated by ``scale``.
    metrics:
        Names of extra per-run metric sets
        (:mod:`repro.scenario.metrics`, e.g. ``"coax"``) merged into
        this scenario's result rows.
    shards:
        Cut the replay into this many per-neighborhood-group shard
        tasks (:mod:`repro.core.shard`) and reduce the results --
        bit-identical to ``shards=1`` for any count.  Strategies that
        share a cross-neighborhood feed cannot shard.
    streaming:
        Generate the trace lazily and replay it chunk by chunk, so
        peak resident session columns stay O(chunk) per worker; the
        metro-scale switch.  Requires an untransformed workload, no
        baselines, and a strategy without future knowledge.
    live:
        Drain the workload through the live headend mode
        (:mod:`repro.live`): requests flow in arrival order through an
        admission layer in front of the index server.  Requires the
        ``bucket`` engine and one shard (throttle budgets are
        plant-wide); it may stream.
        With no admission policies configured the run is bit-identical
        to the offline replay.
    throttle:
        Optional :class:`~repro.live.specs.ThrottleSpec` (the
        ``"throttle"`` admission policy) -- accepts a spec, a
        ``name[:args]`` string, or a spec dict.  Requires ``live``.
    fairness:
        Optional :class:`~repro.live.specs.FairnessSpec` (the ``"vtc"``
        admission policy), coerced the same way.  Requires ``live``.
    """

    trace: WorkloadModel
    config: SimulationConfig = field(default_factory=SimulationConfig)
    engine: str = "bucket"
    seed: Optional[int] = None
    label: str = ""
    scale: float = 1.0
    population_x: int = 1
    catalog_x: int = 1
    baselines: Tuple[str, ...] = ()
    metrics: Tuple[str, ...] = ()
    shards: int = 1
    streaming: bool = False
    live: bool = False
    throttle: Optional[ThrottleSpec] = None
    fairness: Optional[FairnessSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.trace, WorkloadModel):
            raise ConfigurationError(
                f"trace must be a registered workload-family spec "
                f"(e.g. PowerInfoModel), got {type(self.trace).__name__}"
            )
        if not isinstance(self.config, SimulationConfig):
            raise ConfigurationError(
                f"config must be a SimulationConfig, got {type(self.config).__name__}"
            )
        if self.engine not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {list(ENGINE_MODES)}"
            )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        if self.seed is not None:
            # Families without a seed (trace-driven logs) refuse the
            # override; surface that at construction, not replay, time.
            self.trace.with_seed(self.seed)
        if not self.scale > 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        for name in ("population_x", "catalog_x"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        if (self.population_x != 1 or self.catalog_x != 1) \
                and not self.trace.supports_transforms:
            raise ConfigurationError(
                f"workload family {self.trace.family_name!r} does not "
                f"support the section V-A population/catalog transforms"
            )
        # Normalize JSON lists to tuples so equality and hashing behave.
        object.__setattr__(self, "baselines", tuple(self.baselines))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        validate_baselines(self.baselines)
        validate_metrics(self.metrics)
        if isinstance(self.shards, bool) or not isinstance(self.shards, int) \
                or self.shards < 1:
            raise ConfigurationError(
                f"shards must be an integer >= 1, got {self.shards!r}"
            )
        if not isinstance(self.streaming, bool):
            raise ConfigurationError(
                f"streaming must be a bool, got {self.streaming!r}"
            )
        if self.shards > 1 and self.config.strategy.uses_global_feed:
            raise ConfigurationError(
                f"strategy {self.config.strategy.label!r} shares a "
                f"cross-neighborhood popularity feed and cannot run sharded"
            )
        if self.shards > 1 and self.baselines:
            raise ConfigurationError(
                "baseline metrics are whole-trace analytics and cannot "
                "ride on a sharded scenario"
            )
        if self.shards > 1 and self.trace.declared_n_users() is None:
            raise ConfigurationError(
                f"workload family {self.trace.family_name!r} does not "
                f"declare its user count up front, so the replay cannot "
                f"be shard-planned; declare n_users on the trace model"
            )
        if not isinstance(self.live, bool):
            raise ConfigurationError(
                f"live must be a bool, got {self.live!r}"
            )
        object.__setattr__(
            self, "throttle", coerce_live_spec(self.throttle, ThrottleSpec))
        object.__setattr__(
            self, "fairness", coerce_live_spec(self.fairness, FairnessSpec))
        if self.live:
            if self.engine != "bucket":
                raise ConfigurationError(
                    f"live mode drains on the bucket engine only "
                    f"(got engine={self.engine!r})"
                )
            if self.shards > 1:
                raise ConfigurationError(
                    "live mode is a single arrival-order drain and "
                    "cannot run sharded"
                )
        elif self.throttle is not None or self.fairness is not None:
            raise ConfigurationError(
                "throttle / fairness are live admission policies; set "
                "live=true to use them"
            )
        if self.streaming:
            if not self.trace.supports_streaming:
                raise ConfigurationError(
                    f"workload family {self.trace.family_name!r} cannot "
                    f"generate its trace lazily; streaming replay needs a "
                    f"streamable family (e.g. powerinfo)"
                )
            if self.config.strategy.requires_future_knowledge:
                raise ConfigurationError(
                    f"strategy {self.config.strategy.label!r} requires "
                    f"future knowledge of the whole trace and cannot run "
                    f"streamed"
                )
            if self.population_x != 1 or self.catalog_x != 1:
                raise ConfigurationError(
                    "streaming replay supports untransformed workloads "
                    "only (population_x == catalog_x == 1)"
                )
            if self.baselines:
                raise ConfigurationError(
                    "baseline metrics need the materialized trace and "
                    "cannot ride on a streaming scenario"
                )

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------

    def model(self) -> WorkloadModel:
        """The effective workload model (seed override applied)."""
        if self.seed is None:
            return self.trace
        return self.trace.with_seed(self.seed)

    def workload(self) -> Workload:
        """The effective workload: model plus the section V-A transforms."""
        return Workload(model=self.model(), population_x=self.population_x,
                        catalog_x=self.catalog_x)

    def extrapolate(self, measured: float) -> float:
        """Full-scale equivalent of a measured, population-linear rate."""
        return measured / self.scale

    def with_label(self, label: str) -> "Scenario":
        """Copy of this scenario under a different name."""
        return replace(self, label=label)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; the exact inverse of :meth:`from_dict`.

        Transform factors, baselines, and metric sets are emitted only
        when set, so files that predate them (and files that do not use
        them) stay byte-stable.
        """
        payload: Dict[str, Any] = {
            "kind": "scenario",
            "label": self.label,
            "engine": self.engine,
            "seed": self.seed,
            "scale": self.scale,
        }
        if self.population_x != 1:
            payload["population_x"] = self.population_x
        if self.catalog_x != 1:
            payload["catalog_x"] = self.catalog_x
        if self.baselines:
            payload["baselines"] = list(self.baselines)
        if self.metrics:
            payload["metrics"] = list(self.metrics)
        if self.shards != 1:
            payload["shards"] = self.shards
        if self.streaming:
            payload["streaming"] = self.streaming
        if self.live:
            payload["live"] = self.live
        if self.throttle is not None:
            payload["throttle"] = live_spec_to_dict(self.throttle)
        if self.fairness is not None:
            payload["fairness"] = live_spec_to_dict(self.fairness)
        payload["trace"] = model_to_dict(self.trace)
        payload["config"] = config_to_dict(self.config)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        """Rebuild a scenario from its :meth:`to_dict` form."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a scenario must be a dict, got {payload!r}"
            )
        data = dict(payload)
        kind = data.pop("kind", "scenario")
        if kind != "scenario":
            raise ConfigurationError(
                f"expected kind 'scenario', got {kind!r}"
            )
        if "trace" not in data:
            raise ConfigurationError("a scenario needs a 'trace' model")
        trace = model_from_dict(data.pop("trace"))
        config = (config_from_dict(data.pop("config"))
                  if "config" in data else SimulationConfig())
        known = {"engine", "seed", "label", "scale", "population_x",
                 "catalog_x", "baselines", "metrics", "shards", "streaming",
                 "live", "throttle", "fairness"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"scenario has no fields {unknown} "
                f"(have {sorted(known | {'trace', 'config', 'kind'})})"
            )
        return cls(trace=trace, config=config, **data)

    def to_json(self, indent: int = 2) -> str:
        """JSON form (arrays for tuples; :meth:`from_json` restores them)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> None:
        """Write the scenario as a JSON file."""
        Path(path).write_text(self.to_json() + "\n")


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a :class:`Scenario` from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ConfigurationError(f"cannot read scenario file: {error}") from None
    try:
        return Scenario.from_json(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path}: not valid JSON ({error})") from None
