"""The columnar schedule is the same stream at any window width and chunking.

``build_schedule`` reads its starts from a stream of trace chunks and
yields the event stream in windows of ``WINDOW_TICKS`` tick buckets,
carrying later events (with their child links and, once their parent
fired, their seqs) and running one sequence counter across windows.
At a width no trace can exceed, a one-chunk stream with window bounds
0 is one window; every narrower width, and every stream of 1-, 3- or
24-hour chunks (missing the chunks that hold no starts, as a shard
slice does), must concatenate to exactly that, array for array, with
the same total event count.  The traces below pile up the cases where
a carry mistake would show: equal start times whose arcs tie on time,
starts exactly on bucket boundaries, starts one ulp below a boundary
whose first continuation lands on the boundary's, float-noise final
slivers, gaps longer than a window, and sessions spanning many
windows.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.system import columnar_supported
from repro.sim import columnar
from repro.trace.records import TraceChunk

pytestmark = pytest.mark.skipif(not columnar_supported(),
                                reason="needs numpy")

WIDTHS = (1, 7, 72)
WHOLE = 10 ** 9
FIELDS = ("user", "program", "end", "time", "watch", "segment", "delivered")
CHUNK_HOURS = (1, 3, 24)
#: Last segment index per program: one-segment to 25-hour programs.
LAST_SEGMENT = (0, 1, 5, 23, 80, 300)


def _random_columns(seed: int, n: int):
    """A sorted random trace as (starts, durations, programs) columns."""
    rng = random.Random(seed)
    starts, durations, programs = [], [], []
    t = rng.uniform(0.0, 600.0)
    while len(starts) < n:
        r = rng.random()
        if r < 0.05:
            t += rng.uniform(1.0, 3.0) * 86_400.0  # gap past any window
        elif r < 0.35:
            t = (math.floor(t / 300.0) + 1) * 300.0  # on a bucket boundary
        elif r < 0.45:
            # One ulp below a boundary: its continuation lands on the
            # boundary's, a time tie between arcs of different buckets.
            boundary = (math.floor(t / 300.0) + 1) * 300.0
            t = math.nextafter(boundary, 0.0)
            starts.append(t)
            t = boundary
        elif r < 0.6:
            pass  # equal start time
        else:
            t += rng.expovariate(1.0 / 400.0)
        starts.append(t)
    for _ in starts:
        kind = rng.random()
        if kind < 0.3:
            duration = rng.randint(1, 60) * 300.0  # ends on a boundary
        elif kind < 0.45:
            duration = (rng.randint(0, 40) * 300.0
                        + rng.choice((1e-7, 5e-7, 1e-6)))  # noise sliver
        elif kind < 0.5:
            duration = rng.uniform(0.0, 1e-6)  # the first segment is noise
        else:
            duration = rng.uniform(1.0, 90_000.0)
        durations.append(duration)
        programs.append(rng.randrange(len(LAST_SEGMENT)))
    return starts[:n], durations[:n], programs[:n]


def _chunks(columns, chunk_hours=None):
    """``(starts, durations, programs)`` as a chunk stream.

    ``None`` is one chunk with window bounds 0; otherwise one chunk per
    ``chunk_hours`` span that holds a start, with its window bounds.
    """
    starts, durations, programs = columns
    users = [(7 * index) % 13 for index in range(len(starts))]
    if chunk_hours is None:
        return [TraceChunk(0, 0, 0, starts, users, programs, durations)]
    rows = {}
    for row in zip(starts, users, programs, durations):
        rows.setdefault(int(row[0] // (3600.0 * chunk_hours)), []).append(row)
    return [TraceChunk(index, span * chunk_hours, (span + 1) * chunk_hours,
                       *map(list, zip(*rows[span])))
            for index, span in enumerate(sorted(rows))]


def _windows(monkeypatch, width, columns, chunk_hours=None):
    monkeypatch.setattr(columnar, "WINDOW_TICKS", width)
    return list(columnar.build_schedule(iter(_chunks(columns, chunk_hours)),
                                        LAST_SEGMENT))


def _concat(windows, field):
    import numpy as np

    return np.concatenate([getattr(w, field) for w in windows])


TRACES = {
    "zero-records": ([], [], []),
    "one-record": ([1234.5], [5_000.0], [3]),
    **{f"random-{seed}": _random_columns(seed, 400) for seed in range(4)},
}


def _assert_whole_stream(monkeypatch, columns, width, chunk_hours=None):
    whole = _windows(monkeypatch, WHOLE, columns)
    windows = _windows(monkeypatch, width, columns, chunk_hours)
    assert len(whole) == (1 if columns[0] else 0)
    assert (sum(w.n_events for w in windows)
            == sum(w.n_events for w in whole))
    if not whole:
        assert windows == []
        return
    for field in FIELDS:
        assert _concat(windows, field).tolist() == getattr(
            whole[0], field).tolist(), field


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_windows_concatenate_to_the_whole_stream(monkeypatch, trace, width):
    _assert_whole_stream(monkeypatch, TRACES[trace], width)


@pytest.mark.parametrize("width", WIDTHS + (WHOLE,))
@pytest.mark.parametrize("chunk_hours", CHUNK_HOURS)
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_chunk_streams_concatenate_to_the_whole_stream(monkeypatch, trace,
                                                       chunk_hours, width):
    _assert_whole_stream(monkeypatch, TRACES[trace], width, chunk_hours)


def test_random_traces_cover_the_carry_cases(monkeypatch):
    """Guard the fixtures: ties, noise, gaps and long sessions occur."""
    starts, durations, programs = TRACES["random-0"]
    assert len(set(starts)) < len(starts)
    whole = _windows(monkeypatch, WHOLE, TRACES["random-0"])[0]
    assert not whole.delivered.all()  # noise-only first segments
    times = whole.time.tolist()
    assert any(a == b and s != t for a, b, s, t in zip(
        times, times[1:], (whole.segment == 0).tolist()[:-1],
        (whole.segment == 0).tolist()[1:]))  # a start ties an arc
    windows = _windows(monkeypatch, 72, TRACES["random-0"])
    spans = {}
    for index, window in enumerate(windows):
        for session in zip(window.user.tolist(), window.program.tolist(),
                           window.end.tolist()):
            spans.setdefault(session, set()).add(index)
    assert max(len(seen) for seen in spans.values()) >= 3
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert max(gaps) > 72 * 300.0
    chunks = _chunks(TRACES["random-0"], 24)  # missing empty days
    assert any(a.end_hour < b.start_hour for a, b in zip(chunks, chunks[1:]))
