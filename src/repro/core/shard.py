"""Sharded metro replay: split the trace once, replay slices, reduce exactly.

A metro-scale deployment is hundreds of neighborhoods whose caches
never interact (the index server at each headend manages only its own
coax segment), so one giant replay can be cut into per-group
:class:`~repro.core.parallel.SimulationTask` shards, dispatched through
the ordinary task runner, and the shard results reduced back into the
monolithic numbers -- bit-identically, because every float fold in the
reduction (:meth:`~repro.core.results.SimulationResult.merged`) happens
in the same ascending-global-neighborhood-id order the monolithic
engines use internally.

The shard data path has two halves, and every shard task takes it,
serial or pooled:

* **the split, once per run** -- :func:`split_shard_slices` generates
  the workload's trace a single time: chunk by chunk from
  :meth:`~repro.trace.streaming.TraceStream.chunks` for a streaming
  run, as one chunk of the memoized materialized trace otherwise.  A
  user -> shard table built from the deterministic placement shuffle
  (:func:`~repro.topology.placement.shared_plant`) splits every chunk
  -- with numpy when it is installed, a python loop otherwise -- and
  each shard's rows are appended to that shard's own slice file
  (:mod:`repro.trace.share`, the format a published sweep trace uses
  too).  :class:`ShardSplits` runs the split lazily, when a run's first
  shard task is dispatched (on the pool's feeder thread, after the
  workers forked), and unlinks the files once their tasks have
  returned;
* **the replay, once per shard** -- :func:`execute_shard_task` drains
  its slice back chunk by chunk through
  :meth:`~repro.core.system.CableVoDSystem.run` on the task's resolved
  engine, so resident session columns stay O(chunk) on either engine;
  a materialized run's slice is simply one chunk.  Slices keep global
  user ids and the global ``n_users``, so placement and strategies see
  the unsharded world.

Generation, placement and filtering are thus paid once per run instead
of once per shard.

Two configurations cannot shard and are rejected up front: strategies
that share a cross-neighborhood popularity feed
(``StrategySpec.uses_global_feed``) couple the shards, and
future-knowledge strategies cannot run streamed (no full trace to take
futures from).
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.core.runner import resolve_engine
from repro.core.system import CableVoDSystem
from repro.errors import ConfigurationError, ReproError
from repro.topology.placement import shared_plant
from repro.topology.sharding import n_neighborhoods_for, partition_neighborhoods
from repro.trace.families import WorkloadModel
from repro.trace.records import TraceChunk
from repro.trace.share import (
    SliceHandle,
    SliceReader,
    SliceWriter,
    attach_columns,
    attach_trace,
    unlink_slice,
)
from repro.trace.streaming import DEFAULT_CHUNK_HOURS, open_trace_stream
from repro.trace.workload import Workload, cached_workload_trace


def workload_n_users(workload: Workload) -> int:
    """The transformed trace's user count, without building the trace.

    Population scaling multiplies the id space (copy ``k`` of user ``u``
    is ``u + k * n_users``); catalog scaling leaves users alone.  This
    is what lets shard planning -- neighborhood counts, group cuts,
    user -> shard tables -- run before any records exist.  Families that
    only discover their user count at build time (an external log with
    no declared population) cannot be shard-planned.
    """
    declared = workload.model.declared_n_users()
    if declared is None:
        raise ConfigurationError(
            f"workload family {workload.model.family_name!r} does not "
            f"declare its user count up front and cannot be shard-planned; "
            f"declare n_users on the trace model"
        )
    return declared * workload.population_x


def shard_neighborhood_groups(workload: Workload, config: SimulationConfig,
                              n_shards: int) -> List[Tuple[int, ...]]:
    """The deterministic shard -> neighborhood-ids cut for one run."""
    count = n_neighborhoods_for(workload_n_users(workload),
                                config.neighborhood_size)
    return partition_neighborhoods(count, n_shards)


def validate_shard_plan(workload: Workload, config: SimulationConfig,
                        n_shards: int, streaming: bool) -> None:
    """Reject configurations that cannot be sharded or streamed exactly.

    Raises :class:`~repro.errors.ConfigurationError` for: a
    cross-neighborhood popularity feed under ``n_shards > 1`` (shards
    would each build a private feed and diverge from the monolithic
    run), streaming with a future-knowledge strategy (futures need the
    whole trace), and streaming with a transformed workload (the
    scaling transforms are whole-trace operations; only identity
    workloads generate lazily).
    """
    strategy = config.strategy
    if n_shards > 1 and strategy.uses_global_feed:
        raise ConfigurationError(
            f"strategy {strategy.label!r} shares a cross-neighborhood "
            f"popularity feed and cannot run sharded"
        )
    if streaming:
        if strategy.requires_future_knowledge:
            raise ConfigurationError(
                f"strategy {strategy.label!r} requires future knowledge "
                f"of the whole trace and cannot run streamed"
            )
        if not workload.is_identity:
            raise ConfigurationError(
                "streaming replay supports identity workloads only; "
                "population/catalog transforms need the materialized trace"
            )
        if not workload.model.supports_streaming:
            raise ConfigurationError(
                f"workload family {workload.model.family_name!r} cannot "
                f"generate its trace lazily and cannot run streamed"
            )


# ----------------------------------------------------------------------
# The split (parent side)
# ----------------------------------------------------------------------

def _shard_owners(n_users: int, config: SimulationConfig,
                  groups: List[Tuple[int, ...]]) -> array:
    """User id -> shard index, from the placement the simulator uses.

    Each group is a contiguous id range, so its users are one slice of
    the plant's ``order``.
    """
    plant = shared_plant(n_users, config.neighborhood_size,
                         config.placement_seed)
    size = plant.neighborhood_size
    owners = array("q", bytes(8 * n_users))
    for shard, ids in enumerate(groups):
        for user_id in plant.order[ids[0] * size:(ids[-1] + 1) * size]:
            owners[user_id] = shard
    return owners


def _chunk_splitter(owners: array, n_shards: int
                    ) -> Callable[[TraceChunk], List[Optional[tuple]]]:
    """``split(chunk)`` -> per shard, its four column buffers or ``None``.

    Row order within each shard is the chunk's (trace) order.
    """
    try:
        import numpy as np
    except ImportError:
        np = None
    if np is None:
        def split_python(chunk: TraceChunk) -> List[Optional[tuple]]:
            parts = [([], [], [], []) for _ in range(n_shards)]
            for row in zip(chunk.start_times, chunk.user_ids,
                           chunk.program_ids, chunk.durations):
                starts, users, programs, durations = parts[owners[row[1]]]
                starts.append(row[0])
                users.append(row[1])
                programs.append(row[2])
                durations.append(row[3])
            return [
                (array("d", part[0]), array("q", part[1]),
                 array("q", part[2]), array("d", part[3])) if part[0] else None
                for part in parts
            ]

        return split_python

    table = np.frombuffer(owners, dtype=np.int64)

    def split_numpy(chunk: TraceChunk) -> List[Optional[tuple]]:
        users = np.asarray(chunk.user_ids, dtype=np.int64)
        shards = table[users]
        # A stable sort by shard keeps each shard's rows in trace order.
        order = np.argsort(shards, kind="stable")
        columns = (
            np.asarray(chunk.start_times, dtype=np.float64)[order],
            users[order],
            np.asarray(chunk.program_ids, dtype=np.int64)[order],
            np.asarray(chunk.durations, dtype=np.float64)[order],
        )
        ends = np.cumsum(np.bincount(shards, minlength=n_shards)).tolist()
        parts: List[Optional[tuple]] = []
        start = 0
        for end in ends:
            parts.append(tuple(c[start:end] for c in columns)
                         if end > start else None)
            start = end
        return parts

    return split_numpy


def split_shard_slices(task, stop: Optional[threading.Event] = None
                       ) -> List[SliceHandle]:
    """Generate ``task``'s trace once and write every shard's rows.

    Returns one :class:`~repro.trace.share.SliceHandle` per shard of
    ``task``'s run, in shard order; the caller owns (and unlinks) the
    files.  A streaming run splits each chunk of one
    :meth:`~repro.trace.streaming.TraceStream.chunks` pass; otherwise
    the memoized materialized trace is split as one chunk.  Chunks a
    shard has no rows in are left out of its file, and the others keep
    their window bounds, so its drain horizon is unchanged.

    A file that cannot be created or written raises
    :class:`~repro.errors.ReproError` naming the run; setting ``stop``
    abandons the split at the next chunk.  Either way every file this
    call created is gone before it raises.
    """
    spec = task.shard
    workload, config = task.workload, task.config
    validate_shard_plan(workload, config, spec.n_shards, spec.streaming)
    groups = shard_neighborhood_groups(workload, config, spec.n_shards)
    n_users = workload_n_users(workload)
    split = _chunk_splitter(_shard_owners(n_users, config, groups),
                            len(groups))
    if spec.streaming:
        stream = open_trace_stream(workload.model,
                                   chunk_hours=spec.chunk_hours)
        catalog, chunks = stream.catalog, stream.chunks()
    else:
        trace = cached_workload_trace(workload)
        # One chunk with window bounds 0: its drain starts at once, and
        # the columnar schedule finalizes its windows at exhaustion.
        catalog, chunks = trace.catalog, [TraceChunk(0, 0, 0,
                                                     *trace.columns())]
    writers: List[SliceWriter] = []
    try:
        for _ in groups:
            writers.append(SliceWriter(catalog, n_users))
        for chunk in chunks:
            if stop is not None and stop.is_set():
                raise ReproError(f"{task.run_name()}: shard split abandoned")
            for writer, columns in zip(writers, split(chunk)):
                if columns is not None:
                    writer.write_chunk(chunk.index, chunk.start_hour,
                                       chunk.end_hour, *columns)
        return [writer.close() for writer in writers]
    except BaseException as error:
        for writer in writers:
            writer.discard()
        if isinstance(error, OSError):
            raise ReproError(
                f"{task.run_name()}: cannot write shard slice files: {error}"
            ) from error
        raise


def _split_key(task) -> tuple:
    """Everything a split depends on: tasks with equal keys share one."""
    spec = task.shard
    return (task.workload, task.config.neighborhood_size,
            task.config.placement_seed, spec.n_shards, spec.streaming,
            spec.chunk_hours if spec.streaming else None)


class ShardSplits:
    """The slice files of one task list's sharded runs.

    :meth:`slice_for` splits a run the first time one of its tasks asks
    (tasks with the same split key -- the shards of one run, or runs
    that differ only in strategy -- share the split), :meth:`done`
    unlinks a split's files once all its tasks have returned, and
    :meth:`close` unlinks whatever is left.  :meth:`cancel` stops an
    in-flight split at its next chunk.

    ``slice_for`` may run on another thread than ``done``: a split is
    stored before any of its tasks is dispatched, so the two never
    touch the same key at once.
    """

    def __init__(self, tasks) -> None:
        self._pending: Dict[tuple, int] = {}
        for task in tasks:
            if task.shard is not None:
                key = _split_key(task)
                self._pending[key] = self._pending.get(key, 0) + 1
        self._slices: Dict[tuple, List[SliceHandle]] = {}
        self._stop = threading.Event()

    def slice_for(self, task) -> Optional[SliceHandle]:
        """``task``'s slice (``None`` for an unsharded task)."""
        if task.shard is None:
            return None
        key = _split_key(task)
        slices = self._slices.get(key)
        if slices is None:
            slices = self._slices[key] = split_shard_slices(task, self._stop)
        return slices[task.shard.index]

    def done(self, task) -> None:
        """Record that ``task`` returned; unlink its split if it was last."""
        if task.shard is None:
            return
        key = _split_key(task)
        self._pending[key] -= 1
        if not self._pending[key]:
            for handle in self._slices.pop(key, ()):
                unlink_slice(handle.path)

    def cancel(self) -> None:
        self._stop.set()

    def close(self) -> None:
        """Unlink every remaining slice file (idempotent)."""
        while self._slices:
            _, slices = self._slices.popitem()
            for handle in slices:
                unlink_slice(handle.path)


# ----------------------------------------------------------------------
# The replay (task side)
# ----------------------------------------------------------------------

def _filtered_chunks(reader: SliceReader) -> Iterator[TraceChunk]:
    """This shard's rows, chunk by chunk, as the parent's split left them."""
    yield from reader.chunks()


def execute_shard_task(task, shard_slice: SliceHandle) -> SimulationResult:
    """Run one shard task in this process from its slice file.

    ``task`` is a :class:`~repro.core.parallel.SimulationTask` whose
    ``shard`` field is set; ``shard_slice`` is the slice
    :func:`split_shard_slices` wrote for it.  Every shard, streamed or
    not, drains its slice chunk by chunk on the task's resolved engine;
    a live task (one shard of the whole plant) drains through
    admission.  A future-knowledge strategy (never streamed) also gets
    the slice's materialized trace to take its futures from.
    """
    spec = task.shard
    config = task.config
    groups = shard_neighborhood_groups(task.workload, config, spec.n_shards)
    trace = (attach_trace(shard_slice)
             if config.strategy.requires_future_knowledge else None)
    with attach_columns(shard_slice) as reader:
        system = CableVoDSystem(
            trace, config, engine=resolve_engine(task.engine),
            neighborhood_ids=list(groups[spec.index]),
            catalog=reader.catalog, n_users=reader.n_users,
        )
        return system.run(_filtered_chunks(reader),
                          admission=task.admission())


def run_sharded(
    trace_model: Union[WorkloadModel, Workload],
    config: SimulationConfig,
    *,
    n_shards: int = 1,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    streaming: bool = False,
    chunk_hours: int = DEFAULT_CHUNK_HOURS,
) -> SimulationResult:
    """Replay one workload as ``n_shards`` independent shard tasks.

    The metro entry point: cuts the plant into contiguous neighborhood
    groups, dispatches one :class:`~repro.core.parallel.SimulationTask`
    per group through :func:`~repro.core.parallel.iter_task_results`
    (serial for ``workers=1``, pool otherwise), and reduces the shard
    results with :meth:`~repro.core.results.SimulationResult.merged`.
    Counters, ``events_processed``, and every meter bucket are
    bit-identical to a monolithic ``run_simulation`` of the same
    workload and config, for any shard count and any worker count.

    ``streaming=True`` additionally bounds resident session columns to
    one generation chunk (``chunk_hours`` simulated hours) in the split
    and in every shard: the trace is never materialized anywhere, which
    is what makes million-user metros fit in memory.
    """
    from repro.core.parallel import ShardSpec, SimulationTask, iter_task_results

    if isinstance(trace_model, Workload):
        workload = trace_model
    else:
        workload = Workload(model=trace_model)
    validate_shard_plan(workload, config, n_shards, streaming)
    # Fail fast on an over-cut plant (clearer here than in the split).
    shard_neighborhood_groups(workload, config, n_shards)
    tasks = [
        SimulationTask(
            workload=workload, config=config, engine=engine,
            shard=ShardSpec(n_shards=n_shards, index=index,
                            streaming=streaming, chunk_hours=chunk_hours),
        )
        for index in range(n_shards)
    ]
    results = [result for result, _ in iter_task_results(tasks,
                                                         workers=workers)]
    return SimulationResult.merged(results)
