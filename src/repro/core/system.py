"""The assembled cable VoD system and its event processes.

:class:`CableVoDSystem` builds the full stack for one simulator
execution -- topology, per-headend index servers bound to their caching
strategies (each owning its neighborhood's set-top peers as slot and
lease columns), and the central media server -- then replays a trace
through it:

* each trace session becomes a *session start* event, fired straight
  from the trace's columns;
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
import operator
import os
import time as _time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.cache.factory import BuildInputs
from repro.errors import SimulationError
from repro.cache import index_server as idx
from repro.cache.index_server import IndexServer
from repro.cache.segments import (
    PlacementMap,
    peer_slots,
    segment_bytes,
    usable_capacity_bytes,
)
from repro.core.config import SimulationConfig
from repro.core.media_server import MediaServer
from repro.core.meter import HourlyMeter, accumulate_rows, expand_intervals
from repro.core.results import SimulationCounters, SimulationResult
from repro.sim.engine import Simulator
from repro.topology.placement import shared_plant
from repro.trace.records import Trace, TraceChunk


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


class CableVoDSystem:
    """One fully wired deployment ready to replay a trace.

    Build once, :meth:`run` once.  For parameter sweeps construct a new
    system per configuration; construction is cheap relative to the run.
    ``neighborhood_ids``, when given, is a non-empty ascending run of
    contiguous global ids (one shard's group); the default is the whole
    plant.  Users are resolved through the shared
    :class:`~repro.topology.hfc.CablePlant`'s ``rank`` array, so the
    system builds no table sized by the user count and no
    per-subscriber object: each selected neighborhood gets one
    :class:`~repro.cache.segments.PlacementMap` over its peers' slot
    counts and one :class:`IndexServer` holding their channel leases.
    A session of a user homed outside the selected neighborhoods raises
    :class:`SimulationError` before it reaches any server.
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
        plant = self._plant = shared_plant(
            n_users, config.neighborhood_size, config.placement_seed
        )
        ids = range(len(plant))
        if neighborhood_ids is not None:
            requested = list(neighborhood_ids)
            first = requested[0] if requested else 0
            ids = range(first, first + len(requested))
            if (not requested or requested != list(ids)
                    or first < 0 or ids[-1] >= len(plant)):
                raise SimulationError(
                    f"neighborhood_ids must be a non-empty ascending "
                    f"contiguous run within 0..{len(plant) - 1}"
                )
        #: The neighborhoods this instance simulates (the whole plant in
        #: a monolithic run, one group in a shard): an ascending range of
        #: global ids -- the fold below depends on the order -- so a
        #: user's local index is ``rank // size - ids.start``.
        self._ids = ids
        self._rank = plant.rank
        self._size = plant.neighborhood_size
        members = [plant.members(nid) for nid in ids]
        #: Subscribers per simulated neighborhood, in local order.
        self._sizes = [len(users) for users in members]

        # The catalog's shared table; each footprint equals the float
        # cache_footprint_bytes() returns.
        counts = catalog.segment_counts
        per_segment = segment_bytes()
        footprints = [count * per_segment for count in counts]
        #: program_id -> final segment index, for the per-session path.
        self._last_segment: List[int] = [count - 1 for count in counts]

        if config.strategy.requires_future_knowledge and trace is None:
            raise SimulationError(
                f"strategy {config.strategy.label!r} requires future "
                f"knowledge of the whole trace and cannot run streamed"
            )
        built = config.strategy.build(
            BuildInputs(
                n_neighborhoods=len(ids),
                future_accesses=(
                    self._neighborhood_futures()
                    if config.strategy.requires_future_knowledge
                    else None
                ),
            )
        )
        self._feed = built.feed

        from repro.cache.base import StrategyContext  # local to avoid cycle

        slots = peer_slots(config.per_peer_storage_bytes)
        self._servers: List[IndexServer] = []
        for nid, users, strategy in zip(ids, members, built.strategies):
            placement = PlacementMap([slots] * len(users))
            context = StrategyContext(
                neighborhood_id=nid,
                capacity_bytes=usable_capacity_bytes(
                    config.per_peer_storage_bytes, len(users)
                ),
                footprint_of=lambda pid, _f=footprints: _f[pid],
            )
            initial = strategy.bind(context)
            server = IndexServer(nid, users, strategy, placement, catalog,
                                 config.max_streams_per_peer)
            server.apply_initial_membership(initial)
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
        families = [[HourlyMeter() for _ in ids] for _ in range(4)]
        (self._local_total, self._local_coax, self._local_upstream,
         self._local_server) = families
        (self._total_meters, self._coax_meters, self._upstream_meters,
         self._server_meters) = (dict(zip(ids, meters)) for meters in families)
        #: Flat delivery log, four entries per delivery: ``(now, watch,
        #: local neighborhood, outcome code)``; see :meth:`_flush`.
        self._log: list = []
        #: Per-(local neighborhood, outcome code) delivery counts, applied
        #: to the index-server stats when the result is built.
        self._counts = [[0] * idx.N_OUTCOME_CODES for _ in ids]
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

        Read from the trace's columns, which are already time-sorted,
        so each program's list comes out sorted for free.  A row homed
        outside this system's neighborhoods raises, as in the replay.
        """
        futures: List[Dict[int, List[float]]] = [dict() for _ in self._ids]
        starts, users, programs, _ = self._trace.columns()
        local_of = self._local_neighborhood
        for start, user_id, program_id in zip(starts, users, programs):
            futures[local_of(user_id)].setdefault(program_id, []).append(start)
        return futures

    def _local_neighborhood(self, user_id: int) -> int:
        """``user_id``'s local neighborhood index, checked.

        Raises :class:`SimulationError` for a user homed outside this
        system's neighborhoods, before the session reaches any server.
        """
        local = self._rank[user_id] // self._size - self._ids.start
        if not 0 <= local < len(self._ids):
            raise self._outside(user_id)
        return local

    def _outside(self, user_id: int) -> SimulationError:
        ids = self._ids
        return SimulationError(
            f"user {user_id} is homed outside this system's neighborhoods "
            f"{ids[0]}..{ids[-1]}"
        )

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
    # its end and the program's segment count are fixed, so instead
    # of rescheduling one event per segment the whole flow becomes one
    # SessionArc walking the 5-minute bucket grid.  Per-session
    # invariants (index server, neighborhood, last segment index) are
    # hoisted into the arc's argument tuple once instead of being
    # re-derived 100+ times per session.

    def _start_session_fast(self, user_id: int, program_id: int,
                            duration: float,
                            end: Optional[float] = None) -> None:
        """Open the viewer stream, deliver the first segment, start the arc.

        A slab fires it with one row of the trace's user, program and
        duration columns at the session's start, so ``end`` defaults to
        ``now + duration`` (the session's own end); a retried live
        admission passes the end of its original session window.  The
        arc carries the remaining segments; a session that fits inside
        one segment starts none.
        """
        sim = self._sim
        now = sim.now
        if end is None:
            end = now + duration
        neighborhood_id = self._local_neighborhood(user_id)
        server = self._servers[neighborhood_id]
        if self._feed is not None:
            self._feed.record(now, program_id, neighborhood_id)
        server.on_session_start(now, user_id, program_id)
        # The viewer's own peer holds one channel for the playback
        # stream; the index server never denies a subscriber their own
        # session.
        server.playback_leases(user_id).append(now + duration)
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
        :class:`~repro.trace.records.TraceChunk`-shaped objects
        (ascending, non-overlapping) with O(chunk) resident session
        columns, and ``chunks=None`` replays the system's own trace's
        columns as one chunk with window bounds 0.  No session record
        is built on either engine.  On ``bucket`` the clock drains to
        just below each chunk's window start -- the horizon-aware run
        leaves every later bucket unactivated -- then the chunk's
        start, user, program and duration columns extend the calendar
        as slabs (argument rows built per bucket as it activates) whose
        columns are dropped once their buckets drain; ``columnar``
        walks the schedule :func:`~repro.sim.columnar.build_schedule`
        builds from the chunks.  Starts are numbered 0, 1, 2, ... chunk
        after chunk below a dynamic band (``Simulator.extend_starts``),
        so any chunking replays bit-identically, including
        ``trace_end_time``, the max session end over the columns.

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
            # The trace's own columns: no second copy.
            chunks = [TraceChunk(0, 0, 0, *self._trace.columns())]
        if self._engine == "columnar":
            events_processed, end_time = self._run_columnar(chunks)
        else:
            sim = self._sim
            callback = self._start_session_fast
            if admission is not None:
                admission.bind(self._sizes)
                self._live = admission
                callback = self._live_request
            end_time = 0.0
            for chunk in chunks:
                bound = chunk.start_second
                if bound > sim.now:
                    sim.run(until=math.nextafter(bound, -math.inf))
                starts, durations = chunk.start_times, chunk.durations
                end_time = max(end_time, max(map(operator.add, starts,
                                                 durations), default=0.0))
                sim.extend_starts(starts, callback, chunk.user_ids,
                                  chunk.program_ids, durations)
            sim.run()
            events_processed = sim.events_processed
        result = self._build_result(events_processed, end_time, started)
        if admission is not None:
            result.live = admission.report
        return result

    # ------------------------------------------------------------------
    # Live headend mode (repro.live)
    # ------------------------------------------------------------------

    def _live_request(self, user_id: int, program_id: int,
                      duration: float) -> None:
        """Admission-wrapped session start (the live drain's callback)."""
        self._live_attempt(user_id, program_id, duration,
                           self._sim.now + duration, 0)

    def _live_attempt(self, user_id: int, program_id: int, duration: float,
                      end: float, attempts: int) -> None:
        """Decide one (re)try of a session-start request.

        ``end`` is the session window's end, fixed at the request: a
        retry admitted later watches what remains of it, while its
        channel lease still runs ``duration`` from the admission.
        """
        sim = self._sim
        now = sim.now
        verdict = self._live.decide(
            now, user_id, program_id, self._local_neighborhood(user_id),
            attempts, deadline=end,
        )
        action = verdict.action
        if action == "admit":
            self._start_session_fast(user_id, program_id, duration, end)
        elif action == "defer":
            sim.at(now + verdict.retry_after, self._live_attempt,
                   user_id, program_id, duration, end, attempts + 1)
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
            n_users=sum(self._sizes),
            n_neighborhoods=len(self._ids),
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

        rank = np.frombuffer(self._rank, dtype=np.int64)
        first, count = self._ids.start, len(self._ids)
        # Bound-method and plain-list lookups hoisted out of the loop;
        # .tolist() because iterating numpy arrays yields numpy scalars,
        # which are several times slower in the interpreter.
        session_starts = [s.on_session_start for s in self._servers]
        request_code = [s.request_segment_code for s in self._servers]
        leases_of = [s.playback_leases for s in self._servers]
        feed = self._feed
        events = 0
        end_time = 0.0

        for schedule in build_schedule(chunks, self._last_segment):
            events += schedule.n_events
            event_nbhd = rank[schedule.user] // self._size - first
            outside = (event_nbhd < 0) | (event_nbhd >= count)
            if outside.any():
                raise self._outside(int(schedule.user[outside.argmax()]))
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
                    leases_of[nbhd](user_id).append(end)  # the session's end
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
