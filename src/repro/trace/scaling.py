"""The paper's trace-scaling transforms (section V-A).

For the scalability experiments (Figs 15/16, Table 16a) the paper scales
the PowerInfo trace multiplicatively rather than re-modelling it:

* **Population x n** -- "We create n copies of each user, and for each
  event in the trace, we execute n events -- one for each copy -- to the
  same program.  In this case, we randomly change the start time between
  1 and 60 seconds to eliminate problems caused by synchronous accesses."
* **Catalog x n** -- "we first create n copies of every program in the
  trace.  For each event in the trace, we substitute one of the n copies
  of the original program at random."

Both transforms are implemented exactly as described, deterministically
(seeded), and preserve the statistical character of the base trace.

Each transform reads the trace's columns, draws from its seeded stream
in row order, and builds the new trace through the stable
``(start, user, program)`` sort of :func:`~repro.trace.records._sorted_trace`
-- one path with or without numpy, whose output is pinned by digest in
``tests/trace/test_scaling.py``.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.sim.random_streams import RandomStreams
from repro.trace.records import Catalog, Program, Trace, _sorted_trace


def scale_population(trace: Trace, factor: int, seed: int = 160) -> Trace:
    """Multiply the user population by an integer ``factor``.

    Copy ``k`` of user ``u`` gets id ``u + k * n_users``.  The original
    events (copy 0) are kept verbatim; every additional copy's event is
    jittered forward by a uniform 1-60 s, per the paper.
    """
    if factor < 1:
        raise ConfigurationError(f"population factor must be >= 1, got {factor}")
    if factor == 1:
        return trace
    rng = RandomStreams(seed).get(f"population-scale-{factor}")
    uniform = rng.uniform
    base_users = trace.n_users
    offsets = range(base_users, factor * base_users, base_users)
    starts: List[float] = []
    users: List[int] = []
    programs: List[int] = []
    durations: List[float] = []
    for start, user_id, program_id, duration in zip(*trace.columns()):
        # Copy 0 verbatim, then copies 1..factor-1, each drawing its
        # jitter in that order.
        starts.append(start)
        starts.extend([start + uniform(1.0, 60.0) for _ in offsets])
        users.append(user_id)
        users.extend([user_id + offset for offset in offsets])
        programs.extend([program_id] * factor)
        durations.extend([duration] * factor)
    return _sorted_trace(starts, users, programs, durations, trace.catalog,
                         base_users * factor)


def scale_catalog(trace: Trace, factor: int, seed: int = 161) -> Trace:
    """Multiply the catalog size by an integer ``factor``.

    Copy ``k`` of program ``p`` gets id ``p + k * n_programs`` and inherits
    its length and introduction time.  Each event is redirected to one of
    the ``factor`` copies of its original program uniformly at random, so
    aggregate demand is unchanged but per-program demand is diluted --
    exactly the effect the paper studies in Fig 16(c).
    """
    if factor < 1:
        raise ConfigurationError(f"catalog factor must be >= 1, got {factor}")
    if factor == 1:
        return trace
    rng = RandomStreams(seed).get(f"catalog-scale-{factor}")
    base_programs = len(trace.catalog)
    programs: List[Program] = []
    for copy in range(factor):
        for program in trace.catalog:
            programs.append(
                Program(
                    program_id=program.program_id + copy * base_programs,
                    length_seconds=program.length_seconds,
                    introduced_at=program.introduced_at,
                )
            )
    catalog = Catalog(programs)
    starts, users, program_ids, durations = trace.columns()
    randrange = rng.randrange
    remapped = [program_id + randrange(factor) * base_programs
                for program_id in program_ids]
    return _sorted_trace(starts, users, remapped, durations, catalog,
                         trace.n_users)
