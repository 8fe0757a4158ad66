"""The heap/calendar merge fires exactly like a heap-only simulator.

Random programs mix preloaded start slabs, heap events that schedule
further heap events, arcs started one tick ahead from heap and slab
callbacks, arcs registered before the run, and up to two horizons.
:class:`~tests.sim.helpers.HeapSimulator` runs every arc step as a
heap event, so its fire log is the order a single global heap gives.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.units import SEGMENT_SECONDS
from tests.sim.helpers import HeapSimulator

#: Heap offsets: tick edges and in-bucket distances are drawn often.
_OFFSETS = st.one_of(st.sampled_from([0.0, 299.0, 300.0, 650.0]),
                     st.floats(min_value=0.0, max_value=3000.0))


@st.composite
def _plans(draw, n):
    """``n`` plans; plan ``i`` only schedules plans ``j > i``.

    A plan is ``(children, arc)``: heap events at ``now + offset``
    running plan ``j``, and the length of an arc started at
    ``now + SEGMENT_SECONDS`` (``None`` for no arc).
    """
    plans = []
    for i in range(n):
        children = []
        if i + 1 < n:
            children = draw(st.lists(
                st.tuples(_OFFSETS, st.integers(i + 1, n - 1)),
                max_size=2))
        arc = draw(st.none() | st.integers(0, 4))
        plans.append((children, arc))
    return plans


@st.composite
def programs(draw):
    n = draw(st.integers(1, 8))
    plans = draw(_plans(n))
    plan = st.integers(0, n - 1)
    slabs = sorted(draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3000.0), plan),
        max_size=10)))
    roots = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3000.0), plan),
        max_size=6))
    arcs = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3000.0),
                  st.integers(0, 4)),
        max_size=4))
    horizons = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=6000.0), max_size=2)))
    return plans, slabs, roots, arcs, horizons


def _replay(sim, program):
    plans, slabs, roots, arcs, horizons = program
    log = []

    def arc_step(now, index, tag, length):
        log.append(("arc", tag, index, now))
        return index < length

    def fire(kind, plan_id):
        now = sim.now
        log.append((kind, plan_id, now))
        children, arc = plans[plan_id]
        for offset, child in children:
            sim.at(now + offset, fire, "heap", child)
        if arc is not None:
            sim.start_arc(now + SEGMENT_SECONDS, arc_step, plan_id, arc)

    sim.preload_starts([time for time, _ in slabs],
                       lambda plan_id: fire("slab", plan_id),
                       [plan_id for _, plan_id in slabs])
    for time, plan_id in roots:
        sim.at(time, fire, "heap", plan_id)
    for tag, (time, length) in enumerate(arcs):
        sim.start_arc(time, arc_step, f"pre{tag}", length)
    for horizon in horizons:
        sim.run(until=horizon)
    sim.run()
    return log, sim.events_processed, sim.now


@settings(max_examples=300, deadline=None)
@given(programs())
def test_merge_matches_heap_only_order(program):
    assert _replay(Simulator(), program) == _replay(HeapSimulator(), program)
