"""The assembled cable VoD system and its event processes.

:class:`CableVoDSystem` builds the full stack for one simulator
execution -- topology, set-top peers, per-headend index servers bound to
their caching strategies, and the central media server -- then replays a
trace through it:

* each trace record becomes a *session start* event;
* a session issues one *segment request* every 5 simulated minutes until
  the viewer walks away (matching section IV-B.1's segment flows);
* every delivery logs one outcome code; the log is folded in bounded
  batches into the index-server counters and the hourly meters -- on
  the coax segment it crossed and, for misses, on the central server
  (section V-B: "the download consumes neighborhood bandwidth, and in
  the latter case, it also consumes server bandwidth").
"""

from __future__ import annotations

import dataclasses
import math
import os
import time as _time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.cache.factory import BuildInputs
from repro.errors import SimulationError
from repro.cache import index_server as idx
from repro.cache.index_server import IndexServer
from repro.cache.segments import PlacementMap, segment_bytes, usable_capacity_bytes
from repro.core.config import SimulationConfig
from repro.core.media_server import MediaServer
from repro.core.meter import HourlyMeter, accumulate_rows, expand_intervals
from repro.core.results import SimulationCounters, SimulationResult
from repro.peers.settop import SetTopBox
from repro.sim.engine import Simulator
from repro.topology.placement import shared_plant
from repro.trace.records import SessionRecord, Trace, TraceChunk


#: Engine selectors: ``"columnar"`` precomputes the event stream as
#: numpy arrays, window by window (the fast path with numpy);
#: ``"bucket"`` replays sessions as tick-bucketed arcs (the scalar
#: reference, the fallback, and the live drain).  Both drain chunk
#: streams and produce bit-identical counters and meter buckets for the
#: same trace/config.
ENGINE_MODES = ("bucket", "columnar")

#: Deliveries the bucket engine logs before folding them into counters
#: and meters.  Bounds the log's memory on every drain; the fold is
#: bit-identical at any value (tests/core/test_delivery_fold.py).
FLUSH_ROWS = 4096


def columnar_supported() -> bool:
    """Whether the columnar engine can run in this interpreter.

    Mirrors the trace backend gate: ``REPRO_ENGINE=python`` forces the
    scalar engine (the escape hatch the numpy-absent CI leg sets), and
    without numpy there is nothing to vectorize with.  When this is
    False a requested ``"columnar"`` engine silently demotes to
    ``"bucket"`` -- safe because the two are bit-identical.
    """
    if os.environ.get("REPRO_ENGINE") == "python":
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - exercised via monkeypatch
        return False
    return True


class _RecordChunk:
    """A trace as one bucket-drain chunk (window bounds 0) over its own
    start column and records, so no record is built anew."""

    start_second = 0.0

    def __init__(self, trace: Trace) -> None:
        self.start_times = trace.start_times
        self._records = trace.records

    def records(self) -> Sequence[SessionRecord]:
        return self._records


class CableVoDSystem:
    """One fully wired deployment ready to replay a trace.

    Build once, :meth:`run` once.  For parameter sweeps construct a new
    system per configuration; construction is cheap relative to the run.
    """

    def __init__(self, trace: Optional[Trace], config: SimulationConfig,
                 engine: str = "bucket", *,
                 neighborhood_ids: Optional[Sequence[int]] = None,
                 catalog=None, n_users: Optional[int] = None) -> None:
        if engine not in ENGINE_MODES:
            raise SimulationError(
                f"unknown engine {engine!r}; choose from {ENGINE_MODES}"
            )
        if engine == "columnar" and not columnar_supported():
            engine = "bucket"
        if trace is not None:
            catalog = trace.catalog
            n_users = trace.n_users
        elif catalog is None or n_users is None:
            raise SimulationError(
                "traceless construction (streaming replay) requires "
                "catalog= and n_users="
            )
        self._trace = trace
        self._config = config
        self._engine = engine
        #: The full metro plant.  Placement is keyed only by
        #: (n_users, neighborhood_size, seed), so every shard task sees
        #: the identical layout (one memoized build per process) and
        #: picks its group from it.
        self._plant = shared_plant(
            n_users, config.neighborhood_size, config.placement_seed
        )
        neighborhoods = self._plant.neighborhoods
        if neighborhood_ids is None:
            selected = list(neighborhoods)
        else:
            ids = list(neighborhood_ids)
            if ids != sorted(set(ids)):
                raise SimulationError(
                    "neighborhood_ids must be sorted and unique"
                )
            if ids and not (0 <= ids[0] and ids[-1] < len(neighborhoods)):
                raise SimulationError(
                    f"neighborhood_ids out of range 0..{len(neighborhoods) - 1}"
                )
            selected = [neighborhoods[i] for i in ids]
        #: The neighborhoods this instance simulates (the whole plant in
        #: a monolithic run, one group in a shard).  Always in ascending
        #: global id order -- the fold below depends on it.
        self._selected = selected

        # The catalog's shared table; each footprint equals the float
        # cache_footprint_bytes() returns.
        counts = catalog.segment_counts
        per_segment = segment_bytes()
        footprints = [count * per_segment for count in counts]
        #: program_id -> final segment index, for the per-session path.
        self._last_segment: List[int] = [count - 1 for count in counts]

        #: user id -> *local* index into the selected neighborhoods
        #: (-1 outside this shard; such users never appear in a shard's
        #: trace slice).  Equals the global neighborhood id when the
        #: whole plant is selected.
        self._user_neighborhood: List[int] = [-1] * n_users
        for local, neighborhood in enumerate(selected):
            for user_id in neighborhood.user_ids:
                self._user_neighborhood[user_id] = local

        if config.strategy.requires_future_knowledge and trace is None:
            raise SimulationError(
                f"strategy {config.strategy.label()!r} requires future "
                f"knowledge of the whole trace and cannot run streamed"
            )
        built = config.strategy.build(
            BuildInputs(
                n_neighborhoods=len(selected),
                future_accesses=(
                    self._neighborhood_futures()
                    if config.strategy.requires_future_knowledge
                    else None
                ),
            )
        )
        self._feed = built.feed

        from repro.cache.base import StrategyContext  # local to avoid cycle

        self._boxes: List[Dict[int, SetTopBox]] = []
        self._servers: List[IndexServer] = []
        for neighborhood, strategy in zip(selected, built.strategies):
            boxes = {
                user_id: SetTopBox(
                    box_id=user_id,
                    storage_bytes=config.per_peer_storage_bytes,
                    max_streams=config.max_streams_per_peer,
                )
                for user_id in neighborhood.user_ids
            }
            placement = PlacementMap(list(boxes.values()))
            context = StrategyContext(
                neighborhood_id=neighborhood.neighborhood_id,
                capacity_bytes=usable_capacity_bytes(
                    config.per_peer_storage_bytes, neighborhood.size
                ),
                footprint_of=lambda pid, _f=footprints: _f[pid],
            )
            initial = strategy.bind(context)
            server = IndexServer(neighborhood, boxes, strategy, placement, catalog)
            server.apply_initial_membership(initial)
            self._boxes.append(boxes)
            self._servers.append(server)

        self._media_server = MediaServer()
        # Every meter is kept *per neighborhood* (local-index lists for
        # the fold, global-id dicts for results).  The aggregate
        # total/server meters are folded from these in ascending global
        # id at result-build time; since neighborhoods never interact,
        # a shard reduction can union the per-neighborhood meters and
        # replay the identical fold -- the keystone of shard/monolith
        # bit-identity.  Families: all deliveries, on-coax deliveries,
        # peer-originated broadcasts (the traffic that rides the
        # bidirectional amplifiers of section IV-B.4), server deliveries.
        families = [[HourlyMeter() for _ in selected] for _ in range(4)]
        (self._local_total, self._local_coax, self._local_upstream,
         self._local_server) = families
        (self._total_meters, self._coax_meters, self._upstream_meters,
         self._server_meters) = (
            {n.neighborhood_id: m for n, m in zip(selected, meters)}
            for meters in families)
        #: Flat delivery log, four entries per delivery: ``(now, watch,
        #: local neighborhood, outcome code)``; see :meth:`_flush`.
        self._log: list = []
        #: Per-(local neighborhood, outcome code) delivery counts, applied
        #: to the index-server stats when the result is built.
        self._counts = [[0] * idx.N_OUTCOME_CODES for _ in selected]
        self._flush_len = 4 * FLUSH_ROWS
        self._vector_fold = columnar_supported()
        self._ran = False
        self._sim = Simulator()
        #: Live admission controller (:mod:`repro.live`), bound by
        #: :meth:`run` when given one.  ``None`` on every offline path
        #: -- the delivery hook below is a single identity check then.
        self._live = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _neighborhood_futures(self) -> List[Dict[int, List[float]]]:
        """Per-neighborhood future access schedules (oracle knowledge).

        The trace is already time-sorted, so each program's list comes
        out sorted for free.
        """
        futures: List[Dict[int, List[float]]] = [
            dict() for _ in range(len(self._selected))
        ]
        for record in self._trace:
            local = self._user_neighborhood[record.user_id]
            if local < 0:
                continue  # a user outside this shard's neighborhoods
            futures[local].setdefault(record.program_id, []).append(
                record.start_time
            )
        return futures

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def plant(self):
        """The HFC topology this system was built on."""
        return self._plant

    @property
    def index_servers(self) -> List[IndexServer]:
        """Per-neighborhood index servers (in neighborhood order)."""
        return list(self._servers)

    @property
    def media_server(self) -> MediaServer:
        """The central catalog server."""
        return self._media_server

    # ------------------------------------------------------------------
    # Event processes -- tick-bucketed session arcs
    # ------------------------------------------------------------------
    #
    # A session's segment flow is fully determined at session start:
    # ``end_time`` and the program's segment count are fixed, so instead
    # of rescheduling one event per segment the whole flow becomes one
    # SessionArc walking the 5-minute bucket grid.  Per-session
    # invariants (index server, neighborhood, last segment index) are
    # hoisted into the arc's argument tuple once instead of being
    # re-derived 100+ times per session.

    def _start_session_fast(self, record: SessionRecord) -> None:
        """Open the viewer stream, deliver the first segment, start the arc.

        The arc carries the remaining segments; a session that fits
        inside one segment starts none.
        """
        sim = self._sim
        now = sim.now
        user_id = record.user_id
        program_id = record.program_id
        neighborhood_id = self._user_neighborhood[user_id]
        server = self._servers[neighborhood_id]
        if self._feed is not None:
            self._feed.record(now, program_id, neighborhood_id)
        server.on_session_start(now, user_id, program_id)
        # The viewer's own box holds one channel for the playback stream;
        # the index server never denies a subscriber their own session.
        server.box_of(user_id).open_stream(
            now, record.duration_seconds, enforce_limit=False
        )
        end = record.end_time
        watch = end - now
        if watch > units.SEGMENT_SECONDS:
            watch = units.SEGMENT_SECONDS
        if watch <= 1e-6:
            return
        self._deliver_segment(now, server, neighborhood_id, user_id,
                              program_id, 0, watch)
        last_segment = self._last_segment[program_id]
        if 0 < last_segment and end > now + units.SEGMENT_SECONDS + 1e-6:
            sim.start_arc(now + units.SEGMENT_SECONDS, self._arc_step,
                          server, neighborhood_id, user_id, program_id, end,
                          last_segment)

    def _arc_step(self, now: float, index: int, server, neighborhood: int,
                  user_id: int, program_id: int, end: float,
                  last_segment: int) -> bool:
        """One arc step: deliver segment ``index + 1``; return whether to go on."""
        watch = end - now
        if watch > units.SEGMENT_SECONDS:
            watch = units.SEGMENT_SECONDS
        if watch <= 1e-6:
            return False
        segment_index = index + 1
        self._deliver_segment(now, server, neighborhood, user_id,
                              program_id, segment_index, watch)
        return (segment_index < last_segment
                and end > now + units.SEGMENT_SECONDS + 1e-6)

    def _deliver_segment(self, now: float, server, neighborhood: int,
                         user_id: int, program_id: int, segment_index: int,
                         watch: float) -> None:
        """Route one segment delivery and log its outcome (bucket engine).

        Nothing is counted or metered here: the outcome code joins the
        delivery log, and :meth:`_flush` folds every ``FLUSH_ROWS``
        deliveries into the neighborhood's index-server stats and its
        four meters (total, coax, upstream, server) -- the columnar
        engine's fold, or its scalar reference without numpy.
        """
        code = server.request_segment_code(
            now, user_id, program_id, segment_index, watch
        )
        log = self._log
        log += (now, watch, neighborhood, code)
        if len(log) >= self._flush_len:
            self._flush()
        live = self._live
        if live is not None:
            live.on_delivery(user_id, neighborhood, idx.SOURCE_OF_CODE[code],
                             code == idx.CODE_MISS_FILLED, watch)

    def _flush(self) -> None:
        """Fold the delivery log into counters and meters, then clear it."""
        log = self._log
        if not log:
            return
        if self._vector_fold:
            import numpy as np

            rows = np.array(log, dtype=np.float64).reshape(-1, 4)
            self._fold(rows[:, 2].astype(np.int64),
                       rows[:, 3].astype(np.int64),
                       expand_intervals(rows[:, 0], rows[:, 1]))
        else:
            self._fold_scalar(log)
        log.clear()

    def _fold_scalar(self, log: list) -> None:
        """The reference fold: replay the log through ``add_interval``.

        Runs when numpy is absent (or ``REPRO_ENGINE=python``); every
        meter sees one ``add_interval`` per delivery in delivery order.
        """
        counts = self._counts
        total, coax = self._local_total, self._local_coax
        upstream, server = self._local_upstream, self._local_server
        rows = iter(log)
        for now, watch, neighborhood, code in zip(rows, rows, rows, rows):
            counts[neighborhood][code] += 1
            total[neighborhood].add_interval(now, watch)
            if code != idx.CODE_LOCAL:
                coax[neighborhood].add_interval(now, watch)
                if code == idx.CODE_PEER:
                    upstream[neighborhood].add_interval(now, watch)
                else:
                    server[neighborhood].add_interval(now, watch)

    def _fold(self, neighborhoods, codes, expanded) -> None:
        """Fold delivery columns into counters and meters (numpy).

        ``expanded`` is :func:`expand_intervals` of the deliveries'
        times and watch lengths (taken by the caller, so those columns
        are freed before the fold allocates).  Per-neighborhood code
        counts come from one ``bincount`` of (neighborhood, code) pairs.
        Meter rows are scattered per family by :func:`accumulate_rows`,
        which seeds each touched bucket with its current value: every
        bucket sees the same float additions as one ``add_interval`` per
        delivery in delivery order, however the deliveries are cut into
        batches.
        """
        import numpy as np

        n_codes = idx.N_OUTCOME_CODES
        # The first fold turns the nested-list counts into an array.
        self._counts = np.bincount(
            neighborhoods * n_codes + codes,
            minlength=len(self._servers) * n_codes,
        ).reshape(-1, n_codes) + self._counts

        event_ids, hours, bits = expanded
        row_nbhd = neighborhoods[event_ids]
        row_code = codes[event_ids]
        accumulate_rows(self._local_total, row_nbhd, hours, bits)
        for meters, rows in (
            (self._local_coax, row_code != idx.CODE_LOCAL),
            (self._local_upstream, row_code == idx.CODE_PEER),
            (self._local_server, row_code >= idx.CODE_BUSY),
        ):
            accumulate_rows(meters, row_nbhd[rows], hours[rows], bits[rows])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, chunks: Optional[Iterable] = None,
            admission=None) -> SimulationResult:
        """Replay the session stream and collect the results.

        Every replay is a chunk replay: ``chunks`` yields
        :class:`~repro.trace.streaming.TraceChunk`-shaped objects
        (ascending, non-overlapping) with O(chunk) resident records,
        and ``chunks=None`` replays the system's own trace as one chunk
        with window bounds 0.  On ``bucket`` the clock drains to just
        below each chunk's window start -- the horizon-aware run leaves
        every later bucket unactivated -- then the chunk's starts
        extend the calendar as slabs whose columns are dropped once
        their buckets drain; ``columnar`` walks the schedule
        :func:`~repro.sim.columnar.build_schedule` builds from the
        chunks.  Starts are numbered 0, 1, 2, ... chunk after chunk
        below a dynamic band (``Simulator.extend_starts``), so any
        chunking replays bit-identically, including
        ``trace_end_time``, the max session end over the records.

        ``admission`` (an
        :class:`~repro.live.admission.AdmissionController`) turns the
        drain into the live headend mode (:mod:`repro.live`): session
        starts pass through it *before* they reach the index server --
        admitted requests start exactly as the offline replay starts
        them, deferred requests are re-decided after their retry-after
        (watching whatever remains of their session window), denied
        requests never touch the plant.  The result carries the
        controller's per-user accounting as ``result.live``.  A
        controller built from no-op specs (unlimited windows, unlimited
        lead) is bit-identical to the offline replay
        (tests/live/test_live_equivalence.py).

        A refused call -- admission off ``bucket``, or a traceless
        system without chunks -- raises :class:`SimulationError` before
        the system's one replay is claimed.
        """
        if chunks is None and self._trace is None:
            raise SimulationError(
                "this system was built traceless; feed it chunks via "
                "run(chunks)"
            )
        if admission is not None and self._engine != "bucket":
            raise SimulationError(
                f"admission drains on the bucket engine only (got "
                f"{self._engine!r})"
            )
        started = self._start_run()
        if chunks is None:
            # From what the engine reads anyway: no second trace copy.
            trace = self._trace
            chunks = [TraceChunk(0, 0, 0, *trace.columns())
                      if self._engine == "columnar" else _RecordChunk(trace)]
        if self._engine == "columnar":
            events_processed, end_time = self._run_columnar(chunks)
        else:
            sim = self._sim
            callback = self._start_session_fast
            if admission is not None:
                admission.bind([n.size for n in self._selected])
                self._live = admission
                callback = self._live_request
            end_time = 0.0
            for chunk in chunks:
                bound = chunk.start_second
                if bound > sim.now:
                    sim.run(until=math.nextafter(bound, -math.inf))
                records = chunk.records()
                end_time = max(end_time, max((r.end_time for r in records),
                                             default=0.0))
                sim.extend_starts(chunk.start_times, callback, records)
            sim.run()
            events_processed = sim.events_processed
        result = self._build_result(events_processed, end_time, started)
        if admission is not None:
            result.live = admission.report
        return result

    # ------------------------------------------------------------------
    # Live headend mode (repro.live)
    # ------------------------------------------------------------------

    def _live_request(self, record: SessionRecord) -> None:
        """Admission-wrapped session start (the live drain's callback)."""
        self._live_attempt(record, 0)

    def _live_attempt(self, record: SessionRecord, attempts: int) -> None:
        """Decide one (re)try of a session-start request."""
        sim = self._sim
        now = sim.now
        user_id = record.user_id
        verdict = self._live.decide(
            now, user_id, record.program_id,
            self._user_neighborhood[user_id], attempts,
            deadline=record.end_time,
        )
        action = verdict.action
        if action == "admit":
            self._start_session_fast(record)
        elif action == "defer":
            sim.at(now + verdict.retry_after, self._live_attempt,
                   record, attempts + 1)
        # "deny": accounted inside the controller; nothing reaches the
        # plant.

    def _start_run(self) -> float:
        """Claim this system's one replay; return the start timestamp."""
        if self._ran:
            raise SimulationError(
                "this system already ran a replay; build a new "
                "CableVoDSystem for another run"
            )
        self._ran = True
        return _time.perf_counter()

    def _build_result(self, events_processed: int, trace_end_time: float,
                      started: float) -> SimulationResult:
        self._flush()
        counters = SimulationCounters()
        names = [f.name for f in dataclasses.fields(counters)]
        for server, row in zip(self._servers, self._counts):
            row = [int(count) for count in row]
            server.stats.add_outcomes(row)
            self._media_server.deliveries += sum(row[idx.CODE_BUSY:])
            for name in names:  # IndexServerStats has the same fields
                setattr(counters, name, getattr(counters, name)
                        + getattr(server.stats, name))

        # The canonical fold: ascending global neighborhood id.  A
        # shard merge (SimulationResult.merged) unions the disjoint
        # per-neighborhood dicts and folds in the same order, which is
        # what keeps sharded and monolithic aggregates bit-identical.
        server_meter = HourlyMeter.merged(self._local_server)
        self._media_server.meter = HourlyMeter.merged([server_meter])
        return SimulationResult(
            config=self._config,
            n_users=sum(n.size for n in self._selected),
            n_neighborhoods=len(self._selected),
            trace_end_time=trace_end_time,
            server_meter=server_meter,
            total_meter=HourlyMeter.merged(self._local_total),
            coax_meters=self._coax_meters,
            upstream_meters=self._upstream_meters,
            total_meters=self._total_meters,
            server_meters=self._server_meters,
            counters=counters,
            events_processed=events_processed,
            wall_seconds=_time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Columnar replay
    # ------------------------------------------------------------------

    def _run_columnar(self, chunks: Iterable) -> Tuple[int, float]:
        """Replay ``chunks`` over their columnar schedule, window by window.

        :func:`~repro.sim.columnar.build_schedule` yields every event
        the drain loop would fire, in the engine's exact firing order,
        one window of ``WINDOW_TICKS`` tick buckets at a time, so no
        event queue runs and one window of events is resident.  The
        walk performs only the *stateful* per-event work -- strategy
        decisions via ``on_session_start``, channel leases, and the
        cache/placement mutations inside ``request_segment_code`` -- and
        collects one outcome code per delivery.  Everything derivable
        from the code stream (per-neighborhood hit/miss counters, every
        hourly meter bucket, server deliveries) is then computed by
        :meth:`_fold` once per window, the same fold the bucket engine
        runs over its delivery log, keeping the engine bit-for-bit
        equal to ``bucket`` (tests/core/test_engine_equivalence.py).
        Returns the event count and the max session end.
        """
        import numpy as np

        from repro.sim.columnar import build_schedule

        nbhd_of_user = np.asarray(self._user_neighborhood, dtype=np.int64)
        # Bound-method and plain-list lookups hoisted out of the loop;
        # .tolist() because iterating numpy arrays yields numpy scalars,
        # which are several times slower in the interpreter.
        session_starts = [s.on_session_start for s in self._servers]
        request_code = [s.request_segment_code for s in self._servers]
        lease_of_user = [None] * len(self._user_neighborhood)
        for boxes in self._boxes:
            for user_id, box in boxes.items():
                lease_of_user[user_id] = box.grant_playback_lease
        feed = self._feed
        events = 0
        end_time = 0.0

        for schedule in build_schedule(chunks, self._last_segment):
            events += schedule.n_events
            event_nbhd = nbhd_of_user[schedule.user]
            # Walk op per event: 0 = session start delivering segment 0,
            # 1 = session start whose first segment is float noise
            # (session bookkeeping only), 2 = arc delivery.
            op = np.where(schedule.segment == 0,
                          np.where(schedule.delivered, 0, 1), 2)
            codes: List[int] = []
            append_code = codes.append

            for kind, now, watch, user_id, program_id, nbhd, segment, end in (
                zip(op.tolist(), schedule.time.tolist(),
                    schedule.watch.tolist(), schedule.user.tolist(),
                    schedule.program.tolist(), event_nbhd.tolist(),
                    schedule.segment.tolist(), schedule.end.tolist())):
                if kind == 2:
                    append_code(request_code[nbhd](
                        now, user_id, program_id, segment, watch
                    ))
                else:
                    if feed is not None:
                        feed.record(now, program_id, nbhd)
                    session_starts[nbhd](now, user_id, program_id)
                    lease_of_user[user_id](end)  # the session's end
                    if kind == 0:
                        append_code(request_code[nbhd](
                            now, user_id, program_id, 0, watch
                        ))

            end_time = float(schedule.end.max(initial=end_time))
            if codes:
                delivered = schedule.delivered
                self._fold(event_nbhd[delivered],
                           np.asarray(codes, dtype=np.int64),
                           expand_intervals(schedule.time[delivered],
                                            schedule.watch[delivered]))
        return events, end_time
