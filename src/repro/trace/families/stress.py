"""Stress-shape families: adversarial transforms over any base workload.

The paper evaluates steady-state PowerInfo-like demand; these families
answer the "what breaks it?" questions reviewers ask.  Each wraps a
``base`` spec from *any* registered family (nested serialization via
``nested_family_fields``) and perturbs the generated trace:

``flash-crowd``
    A premiere spike: for a few hours, one program receives a Poisson
    burst of extra sessions at ``spike_x`` times the trace's mean
    arrival rate -- the pattern that blows past steady-state cache
    provisioning.
``catalog-churn``
    A popularity shift mid-replay: at ``churn_day`` the program ids of
    later sessions are re-mapped by a seeded permutation (within
    equal-length classes, so session durations stay valid), modeling a
    catalog refresh that invalidates warmed caches.
``zipf-beta``
    Heterogeneous per-user request rates: every session's user id is
    re-drawn from a Zipf(``beta``) distribution over a seeded
    user permutation (the icarus "zipf-beta receivers" shape), so a
    heavy head of users dominates the request stream while times,
    programs and durations are untouched.

Determinism: each shape draws only from named
:class:`~repro.sim.random_streams.RandomStreams` streams rooted at a
seed derived (:func:`~repro.sim.random_streams.derive_seed`) from the
base spec's own seed and the family name, so the perturbation is a pure
function of the frozen spec.  The scenario-level seed override flows
*through* to the base: ``with_seed`` replaces the base's seed, which
also re-roots the perturbation streams.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.random_streams import RandomStreams, derive_seed
from repro.trace.distributions import cumulative, zipf_weights
from repro.trace.families import (
    WorkloadModel,
    coerce_trace_model,
    workload_family,
)
from repro.trace.records import Trace, _sorted_trace
from repro.trace.synthetic import PowerInfoModel, _sample_poisson

_SECONDS_PER_HOUR = 3600.0
_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class _StressModel(WorkloadModel):
    """Shared plumbing of the stress shapes: a wrapped ``base`` spec."""

    base: WorkloadModel = field(default_factory=PowerInfoModel)

    #: Perturbations rewrite whole columns of the base trace, so none of
    #: these families can stream chunks lazily even when the base could.
    supports_streaming: ClassVar[bool] = False
    nested_family_fields: ClassVar[Tuple[str, ...]] = ("base",)

    def __post_init__(self) -> None:
        if not isinstance(self.base, WorkloadModel):
            object.__setattr__(
                self, "base", coerce_trace_model(self.base))

    def declared_n_users(self) -> Optional[int]:
        """The perturbed trace keeps the base trace's user-id space."""
        return self.base.declared_n_users()

    def with_seed(self, seed: int) -> "WorkloadModel":
        """Re-seed the base; the perturbation streams derive from it."""
        return replace(self, base=self.base.with_seed(seed))

    def _streams(self) -> RandomStreams:
        """Perturbation streams: rooted at (base seed, family name)."""
        root = getattr(self.base, "seed", 0)
        root = root if isinstance(root, int) else 0
        return RandomStreams(derive_seed(root, self.family_name))


@workload_family("flash-crowd", summary="premiere spike: a Poisson burst "
                 "of extra sessions on one program over a short window")
@dataclass(frozen=True)
class FlashCrowdModel(_StressModel):
    """A premiere spike layered on the base trace."""

    #: Spike window start, in days from the trace origin.
    spike_day: float = 1.0
    #: Spike window length, in hours.
    spike_hours: float = 3.0
    #: Extra arrival intensity on the target program, as a multiple of
    #: the base trace's mean per-hour session rate.
    spike_x: float = 5.0
    #: Program receiving the spike; ``None`` targets the base trace's
    #: most popular program (ties break to the lowest id).
    program_id: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.spike_day < 0:
            raise ConfigurationError(
                f"spike_day must be >= 0, got {self.spike_day}")
        if self.spike_hours <= 0:
            raise ConfigurationError(
                f"spike_hours must be positive, got {self.spike_hours}")
        if self.spike_x <= 0:
            raise ConfigurationError(
                f"spike_x must be positive, got {self.spike_x}")

    def build_trace(self, backend: Optional[str] = None) -> Trace:
        base_trace = self.base.build_trace(backend)
        if not len(base_trace):
            raise ConfigurationError(
                "flash-crowd needs a non-empty base trace to spike")
        target = self.program_id
        if target is None:
            target = base_trace.most_popular_program()
        elif target not in base_trace.catalog:
            raise ConfigurationError(
                f"flash-crowd targets program {target}, but the base "
                f"catalog has {len(base_trace.catalog)} programs"
            )
        span_hours = max(
            (base_trace.end_time - base_trace.start_time)
            / _SECONDS_PER_HOUR, 1.0)
        mean_rate = len(base_trace) / span_hours
        start_column, user_column, program_column, duration_column = \
            base_trace.columns()
        # Spike sessions resample the base trace's own empirical
        # columns: users from the user column, durations from the
        # target program's observed session lengths (every program's
        # durations, capped to the target's length, when the target was
        # never watched).
        target_durations = [
            duration_column[i] for i in range(len(program_column))
            if program_column[i] == target
        ]
        length_cap = base_trace.catalog[target].length_seconds
        if not target_durations:
            target_durations = [
                min(d, length_cap) for d in duration_column]
        streams = self._streams()
        counts_rng = streams.get("spike-counts")
        events_rng = streams.get("spike-events")
        window_start = self.spike_day * _SECONDS_PER_DAY
        starts, users = list(start_column), list(user_column)
        programs, durations = list(program_column), list(duration_column)
        full_hours = int(self.spike_hours)
        for hour in range(full_hours + 1):
            hour_fraction = min(self.spike_hours - hour, 1.0)
            if hour_fraction <= 0:
                break
            lam = self.spike_x * mean_rate * hour_fraction
            hour_start = window_start + hour * _SECONDS_PER_HOUR
            for _ in range(_sample_poisson(counts_rng, lam)):
                start = hour_start + (events_rng.random() * hour_fraction
                                      * _SECONDS_PER_HOUR)
                starts.append(start)
                users.append(user_column[
                    int(events_rng.random() * len(user_column))])
                programs.append(target)
                durations.append(target_durations[
                    int(events_rng.random() * len(target_durations))])
        return _sorted_trace(starts, users, programs, durations,
                             base_trace.catalog, base_trace.n_users)


@workload_family("catalog-churn", summary="mid-replay popularity shift: "
                 "seeded program re-mapping from churn_day onward")
@dataclass(frozen=True)
class CatalogChurnModel(_StressModel):
    """A popularity shift partway through the base trace."""

    #: Day (trace clock) at which the re-mapping takes effect.
    churn_day: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.churn_day < 0:
            raise ConfigurationError(
                f"churn_day must be >= 0, got {self.churn_day}")

    def build_trace(self, backend: Optional[str] = None) -> Trace:
        base_trace = self.base.build_trace(backend)
        # Permute ids only within equal-length classes: a session's
        # duration can never exceed its (new) program's length, so the
        # remapped sessions stay valid by construction.
        classes: Dict[float, List[int]] = {}
        for program in base_trace.catalog:
            classes.setdefault(
                program.length_seconds, []).append(program.program_id)
        shuffle_rng = self._streams().get("churn-permutation")
        mapping: Dict[int, int] = {}
        for length in sorted(classes):
            ids = sorted(classes[length])
            shuffled = list(ids)
            shuffle_rng.shuffle(shuffled)
            mapping.update(zip(ids, shuffled))
        starts, users, programs, durations = base_trace.columns()
        # Sessions starting before the churn keep their programs.
        cut = bisect_left(starts, self.churn_day * _SECONDS_PER_DAY)
        programs = programs[:cut] + list(map(mapping.__getitem__,
                                             programs[cut:]))
        return _sorted_trace(starts, users, programs, durations,
                             base_trace.catalog, base_trace.n_users)


@workload_family("zipf-beta", summary="heterogeneous user activity: "
                 "session users re-drawn from a Zipf(beta) head")
@dataclass(frozen=True)
class ZipfBetaModel(_StressModel):
    """Zipf-skewed per-user request rates over the base trace."""

    #: Zipf exponent over user activity ranks; 0 degenerates to the
    #: base trace's own (roughly uniform) user mix.
    beta: float = 1.2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.beta < 0:
            raise ConfigurationError(
                f"beta must be non-negative, got {self.beta}")

    def build_trace(self, backend: Optional[str] = None) -> Trace:
        base_trace = self.base.build_trace(backend)
        n_users = base_trace.n_users
        if n_users < 1:
            raise ConfigurationError(
                "zipf-beta needs a base trace with at least one user")
        user_cdf = cumulative(zipf_weights(n_users, self.beta))
        streams = self._streams()
        # Which concrete user sits at each activity rank is itself
        # seeded, so rank 0 is not always user 0.
        rank_to_user = list(range(n_users))
        streams.get("user-ranks").shuffle(rank_to_user)
        draws_rng = streams.get("user-draws")
        starts, _, programs, durations = base_trace.columns()
        users = [
            rank_to_user[min(bisect_left(user_cdf, draws_rng.random()),
                             n_users - 1)]
            for _ in starts
        ]
        return _sorted_trace(starts, users, programs, durations,
                             base_trace.catalog, n_users)
