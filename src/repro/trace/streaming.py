"""Streaming trace generation: hour-chunked records, O(chunk) memory.

:func:`open_trace_stream` runs the same shared prologue as
:func:`repro.trace.synthetic.generate_trace` (catalog, Little's-law
calibration, diurnal shares, user-activity cumulative -- all
bit-identical across backends) but instead of materializing the full
:class:`~repro.trace.records.Trace` it returns a re-streamable
:class:`TraceStream` whose :meth:`~TraceStream.chunks` generator yields
:class:`TraceChunk` column slabs covering ``chunk_hours`` simulated
hours each, in start order.

Both backends stream bit-identically to their batch counterparts:

* the numpy path delegates to
  :func:`repro.trace.vectorized.stream_records_numpy`, which replays the
  batch sampler's draw order chunk by chunk via sequential stream
  consumption plus two ``advance()`` clones (final-hour peek, body
  uniforms);
* the python path re-runs ``generate_trace``'s per-hour loop with
  persistent samplers and streams, cutting the session rows at chunk
  boundaries -- hour blocks are disjoint, so a stable sort of each
  chunk by ``(start, user, program)`` (the ``SessionRecord`` ordering)
  reproduces the batch constructor's global sort slice by slice.

``TraceStream.materialize()`` concatenates the chunks back into a
``Trace`` equal to ``generate_trace(model, backend)`` -- the equality
both replay modes and the test suite pin.

Peak memory: the generator keeps O(hours) hourly counts plus one chunk
of columns alive at a time; ``TraceChunk`` is deliberately a plain
class (weakref-able) so the bounded-memory test can assert chunks are
collected as the consumer advances.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence

from repro import units
from repro.errors import ConfigurationError
from repro.sim.random_streams import RandomStreams
from repro.trace.records import Catalog, Trace, TraceChunk
from repro.trace.synthetic import (
    PowerInfoModel,
    _arrival_profile,
    _build_catalog,
    _HourlyProgramSampler,
    _sample_poisson,
    _SessionLengthSampler,
    calibrate_sessions_per_user_per_day,
    resolve_trace_backend,
)

#: Default chunk span.  Six hours of a 1M-user metro plant is a few
#: hundred thousand sessions -- tens of MB of columns, far under the
#: whole-trace footprint, while still amortizing per-chunk overhead.
DEFAULT_CHUNK_HOURS = 6


class TraceStream:
    """A lazily generated trace: prologue up front, records on demand.

    Re-streamable -- every :meth:`chunks` call restarts generation from
    the model seed, so independent consumers (or a retry) see identical
    chunks without any buffering.
    """

    def __init__(
        self,
        model: PowerInfoModel,
        backend: str,
        chunk_hours: int,
        catalog: Catalog,
        release_flags: Sequence[bool],
        daily_sessions: float,
        shares: List[float],
        user_cum: Sequence[float],
    ) -> None:
        self._model = model
        self._backend = backend
        self._chunk_hours = chunk_hours
        self._catalog = catalog
        self._release_flags = release_flags
        self._daily_sessions = daily_sessions
        self._shares = shares
        self._user_cum = user_cum

    @property
    def model(self) -> PowerInfoModel:
        return self._model

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def chunk_hours(self) -> int:
        return self._chunk_hours

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def n_users(self) -> int:
        return self._model.n_users

    @property
    def end_time(self) -> float:
        """The trace window end -- what ``Trace.end_time`` reports."""
        return self._model.duration_seconds

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield ascending, non-overlapping, non-empty chunks."""
        if self._backend == "numpy":
            from repro.trace.vectorized import stream_records_numpy

            raw = stream_records_numpy(
                self._model, self._catalog, self._release_flags,
                self._daily_sessions, self._shares, self._user_cum,
                self._chunk_hours,
            )
            for index, (h0, h1, starts, users, programs, durs) in enumerate(raw):
                yield TraceChunk(index, h0, h1, starts.tolist(),
                                 users.tolist(), programs.tolist(),
                                 durs.tolist())
            return
        yield from self._chunks_python()

    def _chunks_python(self) -> Iterator[TraceChunk]:
        """The reference per-session loop, cut at chunk boundaries.

        Mirrors ``generate_trace``'s python body statement for
        statement; samplers and streams persist across chunks so the
        draw sequence is identical to the batch run.
        """
        model = self._model
        catalog = self._catalog
        shares = self._shares
        user_cum = self._user_cum
        daily_sessions = self._daily_sessions
        from bisect import bisect_left

        program_sampler = _HourlyProgramSampler(model, catalog,
                                                self._release_flags)
        length_sampler = _SessionLengthSampler(model)

        streams = RandomStreams(model.seed)
        rng_counts = streams.get("hourly-counts")
        rng_times = streams.get("event-times")
        rng_users = streams.get("event-users")
        rng_programs = streams.get("event-programs")
        rng_lengths = streams.get("event-lengths")

        total_hours = int(math.ceil(model.days * units.HOURS_PER_DAY))
        window_end = model.duration_seconds
        index = 0
        for h0 in range(0, total_hours, self._chunk_hours):
            h1 = min(h0 + self._chunk_hours, total_hours)
            rows: List[tuple] = []
            for hour in range(h0, h1):
                hod = hour % units.HOURS_PER_DAY
                lam = daily_sessions * shares[hod]
                count = _sample_poisson(rng_counts, lam)
                hour_start = hour * units.SECONDS_PER_HOUR
                for _ in range(count):
                    start = (hour_start
                             + rng_times.random() * units.SECONDS_PER_HOUR)
                    if start >= window_end:
                        continue
                    user_id = bisect_left(user_cum, rng_users.random())
                    program_id = program_sampler.sample(start, rng_programs)
                    program = catalog[program_id]
                    duration = length_sampler.sample(program, rng_lengths)
                    rows.append((start, user_id, program_id, duration))
            if not rows:
                continue
            rows.sort(key=itemgetter(0, 1, 2))
            yield TraceChunk(index, h0, h1, *map(list, zip(*rows)))
            index += 1

    def materialize(self) -> Trace:
        """Concatenate every chunk into a full ``Trace``.

        Equal to ``generate_trace(self.model, self.backend)`` -- useful
        for tests and for consumers that decide streaming is not worth
        it for a small model.
        """
        return Trace.from_chunks(self.chunks(), self._catalog,
                                 self._model.n_users)


def open_trace_stream(
    model: PowerInfoModel,
    backend: Optional[str] = None,
    chunk_hours: int = DEFAULT_CHUNK_HOURS,
) -> TraceStream:
    """Run the shared generation prologue and return a ``TraceStream``.

    ``backend``/``chunk_hours`` semantics match ``generate_trace`` plus
    the chunk span; the prologue (catalog, calibration, activity mix) is
    the exact shared code path, so a stream and a batch trace of the
    same model agree on everything but laziness.
    """
    if chunk_hours < 1:
        raise ConfigurationError(
            f"chunk_hours must be >= 1, got {chunk_hours}")
    backend = resolve_trace_backend(backend)
    streams = RandomStreams(model.seed)
    catalog, release_flags = _build_catalog(model, streams)
    rate = calibrate_sessions_per_user_per_day(model, catalog, release_flags)
    shares = model.normalized_diurnal()
    daily_sessions = rate * model.n_users
    user_cum, session_mass_x = _arrival_profile(model, streams)
    if session_mass_x != 1.0:
        daily_sessions *= session_mass_x
    return TraceStream(model, backend, chunk_hours, catalog, release_flags,
                       daily_sessions, shares, user_cum)
