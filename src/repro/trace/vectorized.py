"""Vectorized (numpy) backend of the synthetic trace generator.

:func:`repro.trace.synthetic.generate_trace` dispatches here when the
resolved backend is ``"numpy"`` (``REPRO_TRACE_BACKEND`` / the CLI's
``--trace-backend`` flag).  The catalog, the Little's-law calibration,
and the per-user activity cumulative arrive precomputed from the shared
pure-python prologue, so both backends agree on them bit-for-bit; this
module replaces only the per-session sampling loop with whole-trace
batch draws:

* one vectorized Poisson call for every hourly arrival count;
* one uniform batch for all intra-hour start offsets;
* user picks as a single ``searchsorted`` over the activity cumulative;
* program picks per simulated hour (the hourly popularity refresh of
  ``_HourlyProgramSampler`` is kept -- decay moves on day scales, so the
  cumulative is rebuilt once per hour and each hour's picks are one
  ``searchsorted`` batch);
* session lengths as a full-view mask plus truncated-lognormal
  inverse-CDF batches grouped by distinct program length, using a
  vectorized port of the same Acklam inverse-normal approximation the
  scalar path uses.

Determinism: every batch draws from its own ``numpy`` PCG64 generator
seeded by :func:`repro.sim.random_streams.derive_seed` of the model seed
and a ``"numpy-..."``-prefixed stream name, so the backend is
bit-reproducible for a given model (and deliberately *not* stream-
compatible with the python backend -- equivalence is distribution-level,
pinned by ``tests/trace/test_backends.py``).

Records land in a :class:`~repro.trace.records.Trace` through the
columnar ``Trace.from_columns`` path after an explicit lexsort on
``(start_time, user_id, program_id)``, skipping the list constructor's
re-sort and per-record catalog scan.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.sim.random_streams import derive_seed
from repro.trace import distributions as dist
from repro.trace.records import Catalog, Trace
from repro.trace.synthetic import PowerInfoModel, _decay_factor  # noqa: F401

#: Clamp applied to inverse-CDF arguments, mirroring the scalar
#: TruncatedLogNormal.sample guard against float-boundary u values.
_PPF_EPS = 1e-12


def _rng(seed: int, name: str) -> np.random.Generator:
    """A named, independently seeded generator (numpy-side streams)."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, f"numpy-{name}")))


def _normal_ppf(p: np.ndarray) -> np.ndarray:
    """Vectorized Acklam inverse normal CDF (mirrors dist.normal_ppf).

    ``p`` must already be clamped inside the open interval; the three
    rational-approximation regions are evaluated per element.
    """
    a, b = dist._A, dist._B
    c, d = dist._C, dist._D
    out = np.empty_like(p)

    low = p < dist._P_LOW
    high = p > dist._P_HIGH
    mid = ~(low | high)

    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        out[low] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if high.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        out[high] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        out[mid] = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    return out


def _program_picks(
    model: PowerInfoModel,
    catalog: Catalog,
    release_flags: Sequence[bool],
    counts: np.ndarray,
    rng: np.random.Generator,
    hour_offset: int = 0,
) -> np.ndarray:
    """Program ids for every session, grouped by simulated hour.

    The instantaneous weight of a program at an hour's midpoint is
    ``zipf * decay(age)`` for releases and ``zipf`` for back-catalog,
    exactly as ``_HourlyProgramSampler._refresh`` computes it (including
    the all-weights-vanished fallback to the static Zipf mix).

    ``hour_offset`` shifts ``counts[0]`` to an absolute simulated hour so
    the streaming generator can hand in one chunk of counts at a time and
    still evaluate decay at the same absolute midpoints as a whole-trace
    call.
    """
    n = len(catalog)
    zipf = np.asarray(
        dist.zipf_weights(n, model.zipf_exponent,
                          shift=model.zipf_shift_fraction * n)
    )
    introduced = np.fromiter((p.introduced_at for p in catalog), dtype=np.float64,
                             count=n)
    release = np.asarray(release_flags, dtype=bool)
    tau = model.decay_tau_days * units.SECONDS_PER_DAY
    floor = model.decay_floor

    offsets = np.concatenate(([0], np.cumsum(counts)))
    programs = np.empty(int(counts.sum()), dtype=np.int64)
    active_hours = np.nonzero(counts)[0]
    # Hour-chunked 2D refresh: one (chunk x catalog) decay/cumsum pass
    # replaces per-hour small-array calls, while the chunk bound keeps
    # the intermediate matrices a few MB even at paper scale.
    chunk_hours = max(1, min(len(active_hours), 2_000_000 // max(n, 1)))
    for start in range(0, len(active_hours), chunk_hours):
        hours = active_hours[start:start + chunk_hours]
        midpoints = (hours + hour_offset + 0.5) * units.SECONDS_PER_HOUR
        age = midpoints[:, None] - introduced[None, :]
        decay = floor + (1.0 - floor) * np.exp(-np.maximum(age, 0.0) / tau)
        decay[age < 0.0] = 0.0
        weights = np.where(release[None, :], decay * zipf[None, :],
                           zipf[None, :])
        cum = np.cumsum(weights, axis=1)
        totals = cum[:, -1]
        # Pathological window (every program introduced later): the
        # scalar sampler falls back to the static Zipf mix too.
        dead = totals <= 0.0
        if dead.any():
            cum[dead] = np.cumsum(zipf)
            totals = cum[:, -1]
        cum /= totals[:, None]
        cum[:, -1] = 1.0
        for row, hour in enumerate(hours):
            lo, hi = offsets[hour], offsets[hour + 1]
            programs[lo:hi] = np.searchsorted(cum[row], rng.random(hi - lo),
                                              side="left")
    return programs


def _session_durations(
    model: PowerInfoModel,
    program_lengths: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Watched durations: full-view atom + truncated lognormal body.

    Body draws are inverse-CDF batches grouped by distinct program
    length (the catalog has a handful), each restricted to the same
    ``[min(min_session, L/2), L]`` band as the scalar sampler.
    """
    total = program_lengths.size
    full_mask = rng.random(total) < model.full_view_probability
    body_u = rng.random(int((~full_mask).sum()))
    return _session_durations_from(model, program_lengths, full_mask, body_u)


def _session_durations_from(
    model: PowerInfoModel,
    program_lengths: np.ndarray,
    full_mask: np.ndarray,
    body_u: np.ndarray,
) -> np.ndarray:
    """Durations from pre-drawn uniforms (elementwise, so chunk-safe).

    Split out of :func:`_session_durations` because the streaming
    generator draws the full-view mask and the body uniforms from two
    generator clones (batch order draws *all* masks before *any* body
    uniform, which a single sequentially-consumed stream cannot
    reproduce chunk by chunk).
    """
    mu, sigma = model.short_session_mu, model.short_session_sigma
    durations = np.where(full_mask, program_lengths, 0.0)

    body_idx = np.nonzero(~full_mask)[0]
    body_len = program_lengths[body_idx]
    # The distinct lengths, ascending: a sort and an adjacent-difference
    # dedupe (np.unique would import numpy.ma on every generation).
    lengths = np.sort(body_len)
    if lengths.size:
        distinct = np.concatenate(([True], lengths[1:] != lengths[:-1]))
        lengths = lengths[distinct]
    for length in lengths:
        lower = min(model.min_session_seconds, length / 2.0)
        cdf_lo = dist.normal_cdf((math.log(lower) - mu) / sigma)
        cdf_hi = dist.normal_cdf((math.log(length) - mu) / sigma)
        if cdf_hi - cdf_lo <= 1e-12:
            # Mirror TruncatedLogNormal's zero-mass guard: the scalar
            # backend refuses this window, so silently pinning every
            # draw to the boundary here would break backend parity.
            raise ConfigurationError(
                f"truncation window [{lower}, {length}] carries no "
                f"probability mass for LogNormal(mu={mu}, sigma={sigma})"
            )
        group = body_len == length
        u = cdf_lo + body_u[group] * (cdf_hi - cdf_lo)
        u = np.clip(u, _PPF_EPS, 1.0 - _PPF_EPS)
        values = np.exp(mu + sigma * _normal_ppf(u))
        durations[body_idx[group]] = np.clip(values, lower, length)
    return durations


def generate_records_numpy(
    model: PowerInfoModel,
    catalog: Catalog,
    release_flags: Sequence[bool],
    daily_sessions: float,
    shares: List[float],
    user_cum: Sequence[float],
) -> Trace:
    """Sample every session of ``model`` in whole-trace batches.

    Called by :func:`repro.trace.synthetic.generate_trace` with the
    shared prologue's outputs (catalog, calibrated daily session rate,
    normalized diurnal shares, user-activity cumulative).
    """
    seed = model.seed
    total_hours = int(math.ceil(model.days * units.HOURS_PER_DAY))
    window_end = model.duration_seconds

    lam = daily_sessions * np.asarray(shares)[
        np.arange(total_hours) % units.HOURS_PER_DAY
    ]
    counts = _rng(seed, "hourly-counts").poisson(lam)
    total = int(counts.sum())
    if total == 0:
        return Trace([], catalog, n_users=model.n_users)

    hour_of = np.repeat(np.arange(total_hours), counts)
    starts = (
        hour_of * float(units.SECONDS_PER_HOUR)
        + _rng(seed, "event-times").random(total) * units.SECONDS_PER_HOUR
    )
    keep = starts < window_end
    if not keep.all():
        # Only the trailing partial hour can overshoot; like the scalar
        # path, the dropped arrivals consume no further draws.
        starts = starts[keep]
        hour_of = hour_of[keep]
        counts = np.bincount(hour_of, minlength=total_hours)
        total = starts.size
        if total == 0:
            return Trace([], catalog, n_users=model.n_users)

    # Sort the starts *before* drawing the remaining columns: a start's
    # value pins its hour, so sorting never crosses the per-hour count
    # boundaries the program sampler groups by, and assigning iid
    # user/program/duration draws to time-ordered arrivals is the same
    # distribution as assigning them to draw-ordered arrivals.  The
    # trace then comes out chronological with no global lexsort and no
    # four-column gather at the end.
    starts.sort()

    users = np.searchsorted(
        np.asarray(user_cum), _rng(seed, "event-users").random(total), side="left"
    )
    programs = _program_picks(model, catalog, release_flags, counts,
                              _rng(seed, "event-programs"))
    lengths = np.fromiter((p.length_seconds for p in catalog), dtype=np.float64,
                          count=len(catalog))
    durations = _session_durations(model, lengths[programs],
                                   _rng(seed, "event-lengths"))

    if total > 1 and bool((starts[1:] == starts[:-1]).any()):
        # Two identical float starts (vanishingly rare with continuous
        # draws, but possible): fall back to the full-key sort so the
        # (start, user, program) contract holds exactly, not just the
        # start ordering.
        order = np.lexsort((programs, users, starts))
        starts, users = starts[order], users[order]
        programs, durations = programs[order], durations[order]

    return Trace.from_columns(
        starts.tolist(),
        users.tolist(),
        programs.tolist(),
        durations.tolist(),
        catalog,
        model.n_users,
    )


def stream_records_numpy(
    model: PowerInfoModel,
    catalog: Catalog,
    release_flags: Sequence[bool],
    daily_sessions: float,
    shares: List[float],
    user_cum: Sequence[float],
    chunk_hours: int,
):
    """Yield the batch generator's records hour-chunk by hour-chunk.

    Bit-identical to :func:`generate_records_numpy`: every chunk's
    columns equal the corresponding slice of the whole-trace batch.
    Holding that equality while keeping memory O(chunk) relies on three
    PCG64 facts (all pinned by ``tests/trace/test_streaming.py``):

    * ``Generator.random(n)`` consumed in sequential pieces equals one
      batch draw, so the times/users/programs/mask streams are simply
      drawn per chunk in order;
    * ``bit_generator.advance(k)`` skips exactly ``k`` doubles, which
      lets the final-hour overshoot (the only hour the batch path
      filters) be *peeked* up front from a clone of the times stream,
      and lets the body-duration uniforms come from a clone of the
      lengths stream advanced past all ``total`` full-view mask draws
      (batch order draws every mask before any body uniform);
    * ``Generator.poisson(lam_array)`` consumes its stream element by
      element, so the O(hours) hourly counts can be drawn whole-trace
      up front.

    Chunks are yielded as ``(start_hour, end_hour, starts, users,
    programs, durations)`` tuples of numpy arrays, ascending and
    non-overlapping; empty chunks are skipped.  Each chunk is sorted by
    ``(start, user, program)`` exactly as the batch path orders the
    same rows: hour blocks are disjoint (a start never leaves its
    hour), so the batch's global sort is the concatenation of the
    per-chunk sorts.  The one theoretical divergence is a start that
    rounds to exactly a chunk-boundary float *and* collides with a
    start on the far side -- a sub-2^-50 coincidence the batch path's
    own tie fallback already treats as pathological.
    """
    if chunk_hours < 1:
        raise ConfigurationError(
            f"chunk_hours must be >= 1, got {chunk_hours}")
    seed = model.seed
    total_hours = int(math.ceil(model.days * units.HOURS_PER_DAY))
    window_end = model.duration_seconds

    lam = daily_sessions * np.asarray(shares)[
        np.arange(total_hours) % units.HOURS_PER_DAY
    ]
    counts = _rng(seed, "hourly-counts").poisson(lam)
    pre_total = int(counts.sum())
    if pre_total == 0:
        return

    # Peek the trailing partial hour: the batch path drops starts past
    # the window *before* drawing users/programs/durations, so the kept
    # total must be known before the first chunk is emitted (it sizes
    # the advance() of the body-uniform clone below).
    dropped = 0
    c_last = int(counts[-1])
    if c_last > 0:
        peek = _rng(seed, "event-times")
        peek.bit_generator.advance(pre_total - c_last)
        last_starts = (
            (total_hours - 1) * float(units.SECONDS_PER_HOUR)
            + peek.random(c_last) * units.SECONDS_PER_HOUR
        )
        dropped = int((last_starts >= window_end).sum())
    total_kept = pre_total - dropped
    if total_kept == 0:
        return

    rng_times = _rng(seed, "event-times")
    rng_users = _rng(seed, "event-users")
    rng_programs = _rng(seed, "event-programs")
    rng_mask = _rng(seed, "event-lengths")
    rng_body = _rng(seed, "event-lengths")
    rng_body.bit_generator.advance(total_kept)

    user_cum_arr = np.asarray(user_cum)
    lengths = np.fromiter((p.length_seconds for p in catalog),
                          dtype=np.float64, count=len(catalog))

    for h0 in range(0, total_hours, chunk_hours):
        h1 = min(h0 + chunk_hours, total_hours)
        chunk_counts = counts[h0:h1]
        c_pre = int(chunk_counts.sum())
        if c_pre == 0:
            continue
        hour_of = np.repeat(np.arange(h0, h1), chunk_counts)
        starts = (
            hour_of * float(units.SECONDS_PER_HOUR)
            + rng_times.random(c_pre) * units.SECONDS_PER_HOUR
        )
        keep = starts < window_end
        if not keep.all():
            starts = starts[keep]
            hour_of = hour_of[keep]
            chunk_counts = np.bincount(hour_of - h0, minlength=h1 - h0)
        total = starts.size
        if total == 0:
            continue
        starts.sort()

        users = np.searchsorted(user_cum_arr, rng_users.random(total),
                                side="left")
        programs = _program_picks(model, catalog, release_flags,
                                  chunk_counts, rng_programs,
                                  hour_offset=h0)
        full_mask = rng_mask.random(total) < model.full_view_probability
        body_u = rng_body.random(int((~full_mask).sum()))
        durations = _session_durations_from(model, lengths[programs],
                                            full_mask, body_u)

        if total > 1 and bool((starts[1:] == starts[:-1]).any()):
            order = np.lexsort((programs, users, starts))
            starts, users = starts[order], users[order]
            programs, durations = programs[order], durations[order]

        yield (h0, h1, starts, users, programs, durations)
