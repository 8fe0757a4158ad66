"""Task runner: many simulation tasks, serial or pooled, tiny pickles.

Experiment figures sweep dozens of :class:`SimulationConfig` points and
workloads, and a metro replay is cut into per-neighborhood-group
shards; each is one :class:`SimulationTask`, an independent simulator
execution.  :func:`iter_task_results` is the primitive: it yields one
outcome per task *in task order, as results land* (``imap`` under the
hood), which is what lets the CLI stream sweep rows live, and callers
get bit-identical counters and meter buckets for any worker count.
:func:`run_many` is the list-returning convenience over a single shared
workload.  One worker (or one task) runs a plain serial loop in this
process.

A PowerInfo-scale trace is tens of millions of records, so no task
ever pickles one.  A task ships a
:class:`~repro.trace.workload.Workload` (a few-field frozen dataclass)
plus, at most, the handle of a slice file (:mod:`repro.trace.share`,
the one on-disk trace format); the trace reaches it from the memo or
from such a file:

* **memoized** -- serial unsharded tasks replay the process-wide
  memoized trace (:func:`~repro.trace.workload.cached_workload_trace`),
  so repeated serial sweeps never regenerate a workload the scenario
  runner already built;
* **published** -- in a pool, each unsharded workload that several
  tasks share is written once as a one-chunk slice file and workers
  attach to it.  A singleton workload is generated in its worker
  instead (once either way), and so is every workload whose publish
  or attach failed -- generation is deterministic, so regenerating is
  bit-identical to attaching;
* **sliced** -- every shard task, serial or pooled, reads its own
  slice file: the parent generates each sharded run's trace once and
  splits it by shard (:mod:`repro.core.shard`), so no task regenerates
  or filters the whole metro.

Publishes and splits run lazily, when a workload's first task is
dispatched -- in a pool, on ``imap``'s feeder thread after the workers
forked, so they overlap running tasks and workers never inherit
generator memory.  Every file is unlinked when the run ends, fails, or
is abandoned; shard slices already as their tasks return.  A task
that raises reaches the caller as a :class:`~repro.errors.ReproError`
naming its scenario, chained from the original error.

Tasks may also request named **baseline metrics** (``no_cache``,
``multicast`` -- see :mod:`repro.baselines.registry`): analytic columns
computed from the task's transformed trace, memoized per distinct
(workload, warmup) inside whichever process runs the task, and returned
alongside the simulation result so sweeps over scaled workloads get
their reference lines without the parent ever materializing the trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.runner import resolve_engine
from repro.core.system import CableVoDSystem
from repro.errors import ConfigurationError, ReproError, TraceError
from repro.trace.records import Trace
from repro.trace.share import SliceHandle, publish_trace, unlink_slice
from repro.trace.streaming import DEFAULT_CHUNK_HOURS
from repro.trace.synthetic import PowerInfoModel
from repro.trace.workload import Workload, cached_workload_trace

if TYPE_CHECKING:
    from repro.core.shard import ShardSplits


@dataclass(frozen=True)
class ShardSpec:
    """Which slice of a sharded metro replay one task executes.

    A run cut into ``n_shards`` dispatches one task per shard; the
    parent's split and each task recompute the deterministic
    neighborhood partition (:mod:`repro.topology.sharding`) from the
    task's workload and config, so the spec itself stays three integers
    and a flag.

    Attributes
    ----------
    n_shards:
        Total shard count of the run this task belongs to.
    index:
        This task's shard (``0 <= index < n_shards``).
    streaming:
        Generate the trace lazily for the split and replay this shard's
        slice chunk by chunk (``CableVoDSystem.run(chunks)``) instead
        of materializing it.
    chunk_hours:
        Generation chunk span for streaming replay (ignored otherwise).
    """

    n_shards: int
    index: int
    streaming: bool = False
    chunk_hours: int = DEFAULT_CHUNK_HOURS

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if not (0 <= self.index < self.n_shards):
            raise ConfigurationError(
                f"shard index must be in 0..{self.n_shards - 1}, "
                f"got {self.index}"
            )
        if self.chunk_hours < 1:
            raise ConfigurationError(
                f"chunk_hours must be >= 1, got {self.chunk_hours}"
            )


@dataclass(frozen=True)
class SimulationTask:
    """One simulator execution as a picklable value.

    Attributes
    ----------
    workload:
        The (possibly transformed) trace the run replays; workers
        regenerate it from this, the trace itself is never pickled.
    config:
        Deployment and policy knobs for the run.
    engine:
        Event-engine path; ``None`` (default) lets the running process
        resolve it (``REPRO_ENGINE``, then ``"auto"``), which pool
        workers inherit from the parent's environment.  A live task
        takes ``"bucket"`` and refuses any other engine, as a live
        scenario does.
    baselines:
        Names of baseline metrics (:data:`repro.baselines.registry`)
        to compute from this task's trace; the values come back in the
        outcome's second element, unextrapolated.  Baselines are
        whole-trace analytics, so they cannot ride on a shard task.
    shard:
        When set, the task replays one neighborhood group of a sharded
        metro run (:mod:`repro.core.shard`) instead of the whole plant.
    live:
        When set, the task drains its trace through the live headend
        mode (``CableVoDSystem.run(admission=...)``) instead of the
        offline replay: a ``(throttle, fairness)`` pair of optional
        admission specs (:mod:`repro.live.specs`), both tiny frozen
        dataclasses so the pickle stays small.  Live tasks drain the
        whole plant: they may carry a one-shard (streamed) spec, never
        a cut of the plant.
    label:
        The scenario label, for error messages (``""`` if none).
    """

    workload: Workload
    config: SimulationConfig
    engine: Optional[str] = None
    baselines: Tuple[str, ...] = ()
    shard: Optional[ShardSpec] = None
    live: Optional[Tuple] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.shard is not None and self.baselines:
            raise ConfigurationError(
                "baseline metrics are whole-trace analytics; request them "
                "on an unsharded task"
            )
        if self.live is not None:
            if self.engine not in (None, "bucket"):
                raise ConfigurationError(
                    f"live mode drains on the bucket engine only "
                    f"(got engine={self.engine!r})"
                )
            object.__setattr__(self, "engine", "bucket")
            if self.shard is not None and self.shard.n_shards > 1:
                raise ConfigurationError(
                    "live mode is a single arrival-order drain; it cannot "
                    "ride on a shard task of a cut plant"
                )

    def admission(self):
        """A fresh admission controller for a live task, else ``None``."""
        if self.live is None:
            return None
        from repro.live.admission import AdmissionController

        throttle, fairness = self.live
        return AdmissionController(throttle=throttle, fairness=fairness)

    def run_name(self) -> str:
        """How error messages name this task's run."""
        if self.label:
            return f"scenario {self.label!r}"
        return "sharded run" if self.shard is not None else "simulation task"


#: What one task returns: the simulation result plus the task's baseline
#: columns (empty dict when the task requested none).
TaskOutcome = Tuple[SimulationResult, Dict[str, float]]

#: Per-process memo of baseline columns, keyed by everything they depend
#: on.  A handful of entries per sweep (one per distinct workload), so a
#: plain dict is fine.
_baseline_memo: Dict[Tuple[Workload, Tuple[str, ...], float],
                     Tuple[Tuple[str, float], ...]] = {}


def _task_baselines(task: SimulationTask, trace: Trace) -> Dict[str, float]:
    """Baseline columns for one task's trace, memoized in this process."""
    if not task.baselines:
        return {}
    key = (task.workload, task.baselines, task.config.warmup_days)
    items = _baseline_memo.get(key)
    if items is None:
        from repro.baselines.registry import baseline_columns

        items = tuple(
            baseline_columns(task.baselines, trace,
                             warmup_seconds=task.config.warmup_seconds).items()
        )
        _baseline_memo[key] = items
    return dict(items)


def _run_on_trace(task: SimulationTask, trace: Trace) -> TaskOutcome:
    """Run one unsharded task on its trace: live or offline, plus baselines."""
    result = CableVoDSystem(trace, task.config,
                            engine=resolve_engine(task.engine)
                            ).run(admission=task.admission())
    return result, _task_baselines(task, trace)


def _execute_task(task: SimulationTask,
                  shard_slice: Optional[SliceHandle] = None) -> TaskOutcome:
    """Serial entry: run one task in this process.

    Unsharded tasks replay the process-wide memoized trace; a shard task
    replays ``shard_slice``, its slice of the run's split.
    """
    if task.shard is not None:
        from repro.core.shard import execute_shard_task

        return execute_shard_task(task, shard_slice), {}
    return _run_on_trace(task, cached_workload_trace(task.workload))


@lru_cache(maxsize=2)
def _attached_trace(handle: SliceHandle) -> Trace:
    """Worker-side memo of attached shared traces.

    Sized like the transformed-trace LRU in :mod:`repro.trace.workload`:
    ordered ``imap`` with chunksize 1 can interleave two workloads on
    one worker, and a slot is a fully materialized trace.
    """
    from repro.trace.share import attach_trace

    return attach_trace(handle)


def _execute_shared(payload: Tuple[SimulationTask, Optional[SliceHandle]],
                    ) -> TaskOutcome:
    """Pool-worker entry: attach the published trace, else regenerate.

    A shard task's handle is its slice of the run's split.  An unsharded
    task's published trace that cannot be attached (deleted tmp file,
    corrupt bytes) degrades to the deterministic regenerate path instead
    of failing the sweep -- the two are bit-identical by construction.
    """
    task, handle = payload
    if task.shard is not None:
        from repro.core.shard import execute_shard_task

        return execute_shard_task(task, handle), {}
    trace: Optional[Trace] = None
    if handle is not None:
        try:
            trace = _attached_trace(handle)
        except (OSError, TraceError):
            trace = None
    if trace is None:
        trace = cached_workload_trace(task.workload)
    return _run_on_trace(task, trace)


def _cpu_workers() -> int:
    """One worker per CPU available to this process.

    ``os.process_cpu_count()`` (Python 3.13+) respects affinity masks --
    the honest number inside containers; older interpreters fall back
    to ``os.cpu_count()``.
    """
    process_cpus = getattr(os, "process_cpu_count", None)
    count = process_cpus() if process_cpus is not None else None
    return count or os.cpu_count() or 1


def default_workers() -> int:
    """The sweep parallelism used when nobody asks for a specific count.

    The ``REPRO_WORKERS`` environment variable wins (``0`` = one per
    CPU), so CI and batch hosts can pin parallelism without threading a
    flag through every entry point; otherwise one worker per CPU.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if requested < 0:
            raise ConfigurationError(
                f"REPRO_WORKERS must be non-negative, got {requested}"
            )
        if requested:
            return requested
        return _cpu_workers()
    return _cpu_workers()


#: Process count used when a sweep entry point is called without an
#: explicit ``workers`` argument.  ``None`` (the initial value) defers
#: to :func:`default_workers` -- the ``REPRO_WORKERS`` environment
#: variable if set, else one worker per CPU -- so sweeps parallelize on
#: capable hosts without anyone passing ``--workers``.  The CLI flag
#: overrides it for one invocation.
_default_workers: Optional[int] = None


def set_default_workers(workers: int) -> None:
    """Pin the sweep parallelism used by default.

    ``1`` keeps everything serial and in-process; ``0`` means one
    worker per CPU.
    """
    global _default_workers
    if workers < 0:
        raise ConfigurationError(f"workers must be non-negative, got {workers}")
    _default_workers = workers


def get_default_workers() -> Optional[int]:
    """The sweep parallelism used when callers do not pass ``workers``.

    ``None`` means "auto": resolve through :func:`default_workers` at
    sweep time.
    """
    return _default_workers


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` means "use the default" (:func:`default_workers`:
    ``REPRO_WORKERS`` if set, else one per CPU); an explicit ``0``
    always means one per CPU -- a caller asking for per-CPU
    parallelism is not overridden by the ambient environment.
    Negative values are rejected.
    """
    if workers is None:
        return default_workers()
    if workers == 0:
        return _cpu_workers()
    if workers < 0:
        raise ConfigurationError(f"workers must be non-negative, got {workers}")
    return workers


def _iter_task_payloads(
    tasks: Sequence[SimulationTask],
    handles: Dict[Workload, SliceHandle],
    splits: Optional[ShardSplits] = None,
) -> Iterator[Tuple[SimulationTask, Optional[SliceHandle]]]:
    """Yield ``(task, handle)`` pairs, publishing and splitting lazily.

    A shard task's handle is its slice file: ``splits`` (required when
    any task carries a shard) splits each sharded run when its first
    task is dispatched.

    For unsharded tasks, workloads referenced by two or more tasks are
    published as one-chunk slice files: a singleton workload
    costs one generation either way (ordered dispatch hands all its
    tasks to one worker's memo), so publishing it would just serialize
    that generation into the parent.  Each shared workload is published
    when its *first* task is dispatched -- ``imap``'s feeder thread
    consumes this generator concurrently with the workers, so later
    publishes (and splits) overlap earlier tasks' simulations instead
    of all running up front before the pool sees any work (and an
    abandoned sweep never prepares the tail it never dispatched).
    Generation happens through the same memoized path serial runs use
    (a trace the scenario runner already built is serialized straight
    from cache) and the object trace is released back to the LRU right
    after: only the flat file stays for the sweep's duration.

    The caller owns ``handles`` (and their unlinking): entries appear
    as publishes happen.  The first failure to write (full tmp,
    unwritable dir) stops further publishing -- already-published
    handles keep serving their tasks; everything else degrades to
    worker-side regeneration, bit-identically.  A split has no such
    fallback: its failure raises at its first task.
    """
    references: Dict[Workload, int] = {}
    for task in tasks:
        if task.shard is None:
            references[task.workload] = references.get(task.workload, 0) + 1
    give_up = False
    for task in tasks:
        if task.shard is not None:
            yield task, splits.slice_for(task)
            continue
        workload = task.workload
        handle = handles.get(workload)
        if handle is None and not give_up and references[workload] > 1:
            try:
                # Late-bound module global so tests (and callers) can
                # monkeypatch the publish path.
                handles[workload] = handle = publish_trace(
                    cached_workload_trace(workload)
                )
            except OSError:
                give_up = True
                handle = None
        yield task, handle


def _task_failure(task: SimulationTask, error: Exception) -> ReproError:
    """``error`` as a :class:`~repro.errors.ReproError` naming ``task``'s run.

    A library error keeps its class and any other becomes a plain
    ``ReproError``, chained from the original (in a pool, from the copy
    the worker sent back).  An error that already names the run -- a
    split's own failure -- passes through unwrapped.
    """
    name = task.run_name()
    if isinstance(error, ReproError):
        if str(error).startswith(name):
            return error
        failure = type(error)(f"{name}: {error}")
    else:
        failure = ReproError(f"{name}: {type(error).__name__}: {error}")
    failure.__cause__ = error
    return failure


def iter_task_results(
    tasks: Sequence[SimulationTask],
    workers: Optional[int] = None,
) -> Iterator[TaskOutcome]:
    """Run every task, yielding outcomes in task order as they land.

    Order is stable (``imap``, not ``imap_unordered``) and results are
    bit-identical for any worker count.  With one worker -- or a single
    task -- everything runs serially in this process against the
    memoized traces, which keeps single-CPU hosts and debugging
    sessions free of multiprocessing overhead.  ``workers=None`` defers
    to :func:`get_default_workers` (the CLI's ``--workers`` flag), else
    :func:`default_workers`.

    Shard tasks read slices of one split per run
    (:class:`~repro.core.shard.ShardSplits`), serial or pooled; the
    slice files are unlinked as their tasks return, and all of them
    when the run ends, fails, or is abandoned.  Multi-worker runs also
    publish each unsharded workload that several tasks share once, as
    a one-chunk slice file (:mod:`repro.trace.share`), so workers
    attach to it instead of regenerating; a failed publish falls back
    to the regenerate path, bit-identically.

    A task that raises -- in the split, in this process or in a worker
    -- ends the run with :func:`_task_failure`'s labelled error.
    """
    from repro.core.shard import ShardSplits

    tasks = list(tasks)
    if workers is None:
        workers = get_default_workers()
    workers = min(resolve_workers(workers), len(tasks))
    splits = ShardSplits(tasks)
    handles: Dict[Workload, SliceHandle] = {}
    try:
        if workers <= 1:
            for task in tasks:
                try:
                    outcome = _execute_task(task, splits.slice_for(task))
                except Exception as error:
                    raise _task_failure(task, error)
                splits.done(task)
                yield outcome
            return

        import multiprocessing as mp

        payloads = _iter_task_payloads(tasks, handles, splits)
        pool = mp.get_context().Pool(processes=workers)
        try:
            # chunksize=1: tasks vary wildly in cost (population
            # transforms multiply event counts; cache sizes change hit
            # ratios), so fine-grained dispatch balances the pool better
            # than range partitioning.  Ordered imap raises a failed
            # task's (or its split's) error at that task's own outcome.
            outcomes = pool.imap(_execute_shared, payloads, chunksize=1)
            for task in tasks:
                try:
                    outcome = next(outcomes)
                except Exception as error:
                    raise _task_failure(task, error)
                splits.done(task)
                yield outcome
        finally:
            # Stop an in-flight split, then terminate outstanding work
            # (also when the caller abandons this generator).  terminate()
            # joins the imap feeder thread, so no publish or split races
            # the unlinks below.
            splits.cancel()
            pool.terminate()
    finally:
        splits.close()
        for handle in handles.values():
            unlink_slice(handle.path)


def run_many(
    trace_model: Union[PowerInfoModel, Workload],
    configs: Sequence[SimulationConfig],
    workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> List[SimulationResult]:
    """Run every config against one shared workload, ``workers`` at a time.

    Parameters
    ----------
    trace_model:
        Seeded workload model (or an explicit
        :class:`~repro.trace.workload.Workload`); each worker
        regenerates its trace from this, the trace itself is never
        pickled.  Serial runs replay the process-wide memoized trace.
    configs:
        Configurations to run; results come back in the same order.
    workers:
        Process count (``None``: the default; ``0``: one per CPU).
    engine:
        Event-engine path forwarded to every run; ``None`` resolves
        through :func:`~repro.core.runner.resolve_engine` in whichever
        process executes the task.
    """
    if isinstance(trace_model, Workload):
        workload = trace_model
    else:
        workload = Workload(model=trace_model)
    tasks = [SimulationTask(workload=workload, config=config, engine=engine)
             for config in configs]
    return [result for result, _ in iter_task_results(tasks, workers=workers)]
