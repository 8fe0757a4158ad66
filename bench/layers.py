"""Outside-in layer tracer for the benchmark's traced pass.

The program has no tracing of its own yet, so the traced pass measures
its layers from outside: :func:`install` replaces the entry points of
each module -- a module-level function at every ``repro`` module that
binds it by name, a method on its class -- with wrappers that record
spans.  Nothing under ``src/`` changes, and nothing is wrapped unless
the traced pass asks for it.

Spans are aggregated in memory per wrapped target: calls, inclusive
seconds, and self seconds (the span minus its child spans).  A
generator is timed per ``next()``, so the consumer's work between items
is not charged to it.

Pool workers must be forked (:func:`install` refuses another start
method): they inherit the wrappers, restart their totals at fork, and
write a snapshot to ``<spans_dir>/<pid>.json`` whenever their span
stack empties.  Each pool task is one top-level span, so a task's
snapshot is on disk before its result reaches the parent, which merges
the files after the replay.

The parent's main thread carries the root span around the replay call.
Its self seconds inside the replay plus the root's own self time (the
*unattributed* time) add up to the replay's wall time.  Spans recorded
on the parent's other threads (the pool's task feeder publishes shared
traces) and in workers overlap that wall time and are reported beside
it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing
import os
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

get_ident = threading.get_ident

#: ``(layer, module, attribute)`` of every statically known target.
#: Strategy ``on_access`` methods and workload-family ``build_trace``
#: methods are discovered from their class hierarchies / registry.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("trace.generate", "repro.trace.synthetic", "generate_trace"),
    ("trace.generate", "repro.trace.streaming", "open_trace_stream"),
    ("trace.stream", "repro.trace.streaming", "TraceStream.chunks"),
    ("trace.share_publish", "repro.trace.share", "publish_trace"),
    ("trace.share_attach", "repro.trace.share", "attach_trace"),
    ("trace.share_attach", "repro.trace.share", "attach_columns"),
    ("topology.place_users", "repro.topology.placement", "place_users"),
    ("core.system.build", "repro.core.system", "CableVoDSystem.__init__"),
    ("core.shard.task", "repro.core.shard", "execute_shard_task"),
    ("core.shard.filter", "repro.core.shard", "_filtered_chunks"),
    ("sim.drain", "repro.sim.engine", "Simulator.run"),
    ("sim.drain", "repro.core.system", "CableVoDSystem._run_columnar"),
    ("sim.schedule", "repro.sim.columnar", "build_schedule"),
    ("sim.schedule", "repro.sim.engine", "Simulator.preload_starts"),
    ("sim.schedule", "repro.sim.engine", "Simulator.extend_starts"),
    ("cache.session_start", "repro.cache.index_server",
     "IndexServer.on_session_start"),
    ("cache.placement", "repro.cache.segments", "PlacementMap.place_program"),
    ("cache.placement", "repro.cache.segments", "PlacementMap.remove_programs"),
    ("cache.request", "repro.cache.index_server", "IndexServer.request_segment"),
    ("cache.request", "repro.cache.index_server",
     "IndexServer.request_segment_code"),
    ("core.meter.add", "repro.core.meter", "HourlyMeter.add_interval"),
    ("core.meter.add", "repro.core.meter", "HourlyMeter.add_bits_bulk"),
    ("core.meter.add", "repro.core.meter", "expand_intervals"),
    ("core.results.fold", "repro.core.meter", "HourlyMeter.merged"),
    ("core.results.fold", "repro.core.results", "SimulationResult.merged"),
    ("core.parallel.wait", "repro.core.parallel", "iter_task_results"),
    ("core.parallel.task", "repro.core.parallel", "_execute_shared"),
    ("core.parallel.task", "repro.core.parallel", "_execute_task"),
    ("live.decide", "repro.live.admission", "AdmissionController.decide"),
)

#: Targets whose results feed a counter: target -> (counter, amount).
_RESULT_COUNTS: Dict[str, Tuple[str, Callable[[tuple, Any], int]]] = {
    "repro.trace.synthetic.generate_trace":
        ("trace.records", lambda args, result: len(result)),
    "repro.core.meter.expand_intervals":
        ("meter.expanded", lambda args, result: len(args[0])),
}
#: Generators whose items feed a counter by their length.
_ITEM_COUNTS = {"repro.trace.streaming.TraceStream.chunks": "trace.records"}
#: The parent's task generator; its lifetime times its worker count is
#: the pool capacity ``core.parallel.busy_frac`` divides by.
_POOL_TARGET = "repro.core.parallel.iter_task_results"


def _pool_slots(args: tuple, kwargs: Dict[str, Any]) -> int:
    """Processes ``iter_task_results`` runs its tasks on (1 = serial)."""
    from repro.core.parallel import get_default_workers, resolve_workers

    tasks = args[0] if args else kwargs["tasks"]
    workers = args[1] if len(args) > 1 else kwargs.get("workers")
    if workers is None:
        workers = get_default_workers()
    return max(1, min(resolve_workers(workers), len(tasks)))


class Tracer:
    """Span aggregation for one process (and, by fork, its workers)."""

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        #: target -> layer name
        self.layer_of: Dict[str, str] = {}
        #: main-thread totals: target -> [calls, inclusive s, self s]
        self.stats: Dict[str, List] = {}
        self.thread_stats: Dict[str, List] = {}
        self.counters: Dict[str, float] = {}
        self.worker = False
        self._stack: List[List[float]] = []
        self._thread_stacks: Dict[int, List[List[float]]] = {}
        self._main = [get_ident()]
        self._lock = threading.Lock()
        self._root: Optional[List[float]] = None
        self._before: Dict[str, List] = {}
        self.replay_wall = 0.0
        self.unattributed = 0.0
        self.replay_stats: Dict[str, List] = {}

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _stat(self, key: str) -> List:
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _enter(self) -> List[List[float]]:
        ident = get_ident()
        if ident == self._main[0]:
            stack = self._stack
        else:
            with self._lock:
                stack = self._thread_stacks.setdefault(ident, [])
        stack.append([perf_counter(), 0.0])
        return stack

    def _exit(self, key: str, stack: List[List[float]]) -> None:
        start, child = stack.pop()
        elapsed = perf_counter() - start
        if stack is self._stack:
            stat = self._stat(key)
        else:
            with self._lock:
                stat = self.thread_stats.setdefault(key, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - child
        if stack:
            stack[-1][1] += elapsed
        elif self.worker and stack is self._stack:
            self.flush()

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _wrap_call(self, key: str, fn: Callable) -> Callable:
        stat = self._stat(key)
        stack = self._stack
        main = self._main
        tracer = self
        count = _RESULT_COUNTS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != main[0]:
                frames = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(key, frames)
            else:
                # The main-thread path is inlined: it runs once per
                # segment request and meter update.
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - frame[0]
                    stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                    elif tracer.worker:
                        tracer.flush()
            if count is not None:
                tracer.add(count[0], count[1](args, result))
            return result

        return traced

    def _wrap_iter(self, key: str, fn: Callable) -> Callable:
        tracer = self
        item_counter = _ITEM_COUNTS.get(key)
        pool = key == _POOL_TARGET

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slots = _pool_slots(args, kwargs) if pool else 0
            return tracer._iterate(key, fn(*args, **kwargs), item_counter,
                                   slots)

        return traced

    def _iterate(self, key: str, inner, item_counter: Optional[str],
                 slots: int):
        born = perf_counter()
        try:
            while True:
                frames = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(key, frames)
                if item_counter is not None:
                    self.add(item_counter, len(item))
                yield item
        finally:
            inner.close()
            if slots:
                self.add("pool.slot_s", slots * (perf_counter() - born))

    def patch(self, layer: str, module_name: str, path: str) -> None:
        """Wrap one target in place (every ``repro`` binding of it)."""
        module = importlib.import_module(module_name)
        owner: Any = module
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        key = f"{module_name}.{path}"
        self.layer_of[key] = layer
        raw = owner.__dict__[name]
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        wrap = (self._wrap_iter if inspect.isgeneratorfunction(func)
                else self._wrap_call)
        wrapped = wrap(key, func)
        if owner is not module:
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, name, wrapped)
            return
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is func:
                    setattr(other, attr, wrapped)

    # ------------------------------------------------------------------
    # Workers, the replay root, and the report
    # ------------------------------------------------------------------

    def _after_fork(self) -> None:
        """Pool-worker start: same wrappers, fresh totals."""
        self._lock = threading.Lock()
        self._main[0] = get_ident()
        self._stack.clear()
        self._thread_stacks.clear()
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.thread_stats.clear()
        self.counters.clear()
        self.worker = True

    def flush(self) -> None:
        """Write this worker's cumulative totals to its per-pid file."""
        payload = {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "counters": self.counters,
        }
        path = os.path.join(self.spans_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(payload, fh)
        os.replace(path + ".tmp", path)

    def begin_replay(self) -> None:
        """Open the root span around the replay call."""
        if self._stack:
            raise RuntimeError("the replay must start with no open span")
        self._before = {k: list(v) for k, v in self.stats.items()}
        self._root = [perf_counter(), 0.0]
        self._stack.append(self._root)

    def end_replay(self) -> None:
        """Close the root span; keep the main-thread spans inside it."""
        frame = self._stack.pop()
        if frame is not self._root or self._stack:
            raise RuntimeError("unbalanced spans around the replay")
        self.replay_wall = perf_counter() - frame[0]
        self.unattributed = self.replay_wall - frame[1]
        zero = [0, 0.0, 0.0]
        self.replay_stats = {}
        for key, stat in self.stats.items():
            before = self._before.get(key, zero)
            delta = [stat[i] - before[i] for i in range(3)]
            if delta[0]:
                self.replay_stats[key] = delta

    def _worker_totals(self) -> Tuple[Dict[str, List], Dict[str, float]]:
        stats: Dict[str, List] = {}
        counters: Dict[str, float] = {}
        for name in sorted(os.listdir(self.spans_dir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.spans_dir, name)) as fh:
                snapshot = json.load(fh)
            for key, values in snapshot["stats"].items():
                acc = stats.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += values[i]
            for counter, amount in snapshot["counters"].items():
                counters[counter] = counters.get(counter, 0) + amount
        return stats, counters

    def report(self) -> Dict[str, Any]:
        """Every span total, by origin, plus the replay root's numbers."""
        worker_stats, worker_counters = self._worker_totals()
        counters = dict(self.counters)
        for counter, amount in worker_counters.items():
            counters[counter] = counters.get(counter, 0) + amount

        def spans(stats: Dict[str, List]) -> Dict[str, Dict[str, Any]]:
            return {
                key: {"layer": self.layer_of[key], "calls": v[0],
                      "incl_s": v[1], "self_s": v[2]}
                for key, v in sorted(stats.items()) if v[0]
            }

        return {
            "wall_s": self.replay_wall,
            "unattributed_s": self.unattributed,
            "replay_spans": spans(self.replay_stats),
            "spans": {"main": spans(self.stats),
                      "thread": spans(self.thread_stats),
                      "worker": spans(worker_stats)},
            "counters": counters,
        }


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _discovered_targets() -> List[Tuple[str, str, str]]:
    """Strategy ``on_access`` and non-powerinfo family ``build_trace``."""
    for module in ("repro.cache.lfu", "repro.cache.lru", "repro.cache.oracle",
                   "repro.cache.global_lfu", "repro.cache.policies.api"):
        importlib.import_module(module)
    from repro.cache.base import CacheStrategy
    from repro.trace.families import iter_families
    from repro.trace.synthetic import PowerInfoModel

    found = set()
    for cls in _subclasses(CacheStrategy):
        method = cls.__dict__.get("on_access")
        if method is not None and not getattr(method, "__isabstractmethod__",
                                              False):
            found.add(("cache.strategy", cls.__module__,
                       f"{cls.__qualname__}.on_access"))
    for info in iter_families():
        cls = info.spec_class
        if cls is not PowerInfoModel and "build_trace" in cls.__dict__:
            found.add(("trace.generate", cls.__module__,
                       f"{cls.__qualname__}.build_trace"))
    return sorted(found)


def install(spans_dir: str) -> Tracer:
    """Wrap every target and return the process's tracer."""
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise RuntimeError(
            f"the traced pass merges spans from forked pool workers; this "
            f"interpreter starts them with {method!r}")
    os.makedirs(spans_dir, exist_ok=True)
    # Import every module first, so each by-name binding exists before
    # the scan that rebinds it.
    importlib.import_module("repro.scenario.runner")
    for _, module, _ in TARGETS:
        importlib.import_module(module)
    targets = list(TARGETS) + _discovered_targets()
    tracer = Tracer(spans_dir)
    for layer, module, path in targets:
        tracer.patch(layer, module, path)
    os.register_at_fork(after_in_child=tracer._after_fork)
    return tracer


def layer_metrics(report: Dict[str, Any],
                  totals: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``totals`` holds counts summed over the run's results (sessions,
    requests, segment requests, hits, fills, fill skips, evictions,
    events, live deferrals).  Seconds are self seconds over every
    process; ``_frac`` metrics divide a layer's self seconds by the
    replay's wall time (layers that run only on some workloads);
    ``bench.trace_overhead`` needs an untraced run and is added by the
    caller.
    """
    self_s: Dict[str, float] = {}
    incl_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    layer_calls: Dict[str, int] = {}
    for origin in ("main", "thread", "worker"):
        for key, span in report["spans"][origin].items():
            layer = span["layer"]
            self_s[layer] = self_s.get(layer, 0.0) + span["self_s"]
            incl_s[layer] = incl_s.get(layer, 0.0) + span["incl_s"]
            calls[key] = calls.get(key, 0) + span["calls"]
            layer_calls[layer] = layer_calls.get(layer, 0) + span["calls"]
    counters = report["counters"]
    wall = report["wall_s"]

    def s(layer: str) -> float:
        return self_s.get(layer, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decisions = layer_calls.get("live.decide", 0)
    fills = totals["fills"]
    return {
        "trace.generate_s": s("trace.generate"),
        "trace.stream_frac": ratio(s("trace.stream"), wall),
        "trace.records_per_session": ratio(counters.get("trace.records", 0),
                                           totals["requests"]),
        "trace.share_publish_frac": ratio(s("trace.share_publish"), wall),
        "trace.share_attach_frac": ratio(s("trace.share_attach"), wall),
        "topology.place_users_s": s("topology.place_users"),
        "topology.place_users_calls": layer_calls.get("topology.place_users",
                                                      0),
        "core.system.build_s": s("core.system.build"),
        "core.shard.task_frac": ratio(s("core.shard.task"), wall),
        "core.shard.filter_frac": ratio(s("core.shard.filter"), wall),
        "sim.drain_s": s("sim.drain"),
        "sim.events": totals["events"],
        "sim.schedule_s": s("sim.schedule"),
        "cache.session_start_s": s("cache.session_start"),
        "cache.strategy_s": s("cache.strategy"),
        "cache.placement_s": s("cache.placement"),
        "cache.request_s": s("cache.request"),
        "cache.hit_ratio": ratio(totals["hits"], totals["segment_requests"]),
        "cache.fills": fills,
        "cache.evictions": totals["evictions"],
        "cache.fill_skip_ratio": ratio(totals["fill_skips"],
                                       fills + totals["fill_skips"]),
        "core.meter.add_s": s("core.meter.add"),
        "core.meter.intervals": (
            calls.get("repro.core.meter.HourlyMeter.add_interval", 0)
            + counters.get("meter.expanded", 0)),
        "core.results.fold_s": s("core.results.fold"),
        "core.parallel.wait_s": s("core.parallel.wait"),
        "core.parallel.busy_frac": ratio(incl_s.get("core.parallel.task", 0.0),
                                         counters.get("pool.slot_s", 0.0)),
        "live.decide_frac": ratio(s("live.decide"), wall),
        "live.decisions": decisions,
        "live.defer_ratio": ratio(totals["deferrals"], decisions),
        "bench.unattributed_s": report["unattributed_s"],
    }
