"""Tick-bucket fast path: ordering, arcs, cancellation, accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestAtFastOrdering:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        for t in (500.0, 100.0, 900.0, 0.0):
            sim.at_fast(t, fired.append, t)
        sim.run()
        assert fired == [0.0, 100.0, 500.0, 900.0]

    def test_fifo_within_a_tick(self):
        sim = Simulator()
        order = []
        # All land in the same 300 s bucket at the same instant.
        for label in "abcde":
            sim.at_fast(42.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_interleaves_with_heap_events_by_fifo(self):
        """at() and at_fast() share one sequence numbering."""
        sim = Simulator()
        order = []
        sim.at(10.0, order.append, "heap-1")
        sim.at_fast(10.0, order.append, "bucket-2")
        sim.at(10.0, order.append, "heap-3")
        sim.at_fast(10.0, order.append, "bucket-4")
        sim.run()
        assert order == ["heap-1", "bucket-2", "heap-3", "bucket-4"]

    def test_sub_tick_ordering_within_bucket(self):
        """Entries in one bucket still fire in exact time order."""
        sim = Simulator()
        fired = []
        for t in (299.0, 1.0, 150.5, 150.0):
            sim.at_fast(t, fired.append, t)
        sim.run()
        assert fired == [1.0, 150.0, 150.5, 299.0]

    def test_rejects_past_times(self):
        sim = Simulator(start_time=1_000.0)
        with pytest.raises(SimulationError):
            sim.at_fast(999.0, lambda: None)

    def test_current_bucket_falls_back_to_heap(self):
        """Scheduling into the draining bucket still fires, in order."""
        sim = Simulator()
        fired = []

        def schedule_sibling():
            # t=20 is inside the bucket currently draining.
            sim.at_fast(20.0, fired.append, "late")

        sim.at_fast(10.0, schedule_sibling)
        sim.at_fast(30.0, fired.append, "grid")
        sim.run()
        assert fired == ["late", "grid"]

    def test_counts_pending_and_processed(self):
        sim = Simulator()
        sim.at_fast(10.0, lambda: None)
        sim.at_fast(400.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 2

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        for t in (100.0, 200.0, 700.0):
            sim.at_fast(t, fired.append, t)
        sim.run(until=300.0)
        assert fired == [100.0, 200.0]
        assert sim.now == 300.0
        assert sim.pending_events == 1
        sim.run()
        assert fired == [100.0, 200.0, 700.0]

    @given(st.lists(st.floats(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_property_matches_heap_order(self, times):
        """A schedule run through at_fast() fires exactly like at()."""

        def run_with(schedule):
            sim = Simulator()
            log = []
            for i, t in enumerate(times):
                schedule(sim)(t, log.append, (t, i))
            sim.run()
            return log

        fast = run_with(lambda sim: sim.at_fast)
        heap = run_with(lambda sim: sim.at)
        assert fast == heap


class TestSessionArcs:
    def test_arc_steps_on_the_grid(self):
        sim = Simulator()
        seen = []

        def step(now, index):
            seen.append((now, index))
            return index < 3

        sim.start_arc(300.0, step)
        sim.run()
        assert seen == [(300.0, 0), (600.0, 1), (900.0, 2), (1200.0, 3)]
        assert sim.events_processed == 4
        assert sim.pending_events == 0

    def test_arc_args_are_forwarded(self):
        sim = Simulator()
        seen = []

        def step(now, index, tag):
            seen.append((index, tag))
            return False

        sim.start_arc(300.0, step, "payload")
        sim.run()
        assert seen == [(0, "payload")]

    def test_arc_rejects_past_and_current_bucket(self):
        sim = Simulator(start_time=1_000.0)
        with pytest.raises(SimulationError):
            sim.start_arc(500.0, lambda now, i: False)

    def test_cancel_in_flight_arc(self):
        """Cancelling mid-run suppresses the already-deposited next step."""
        sim = Simulator()
        seen = []
        arcs = {}

        def victim(now, index):
            seen.append(("victim", index))
            return True  # wants to run forever

        def killer(now, index):
            sim.cancel_arc(arcs["victim"])
            return False

        arcs["victim"] = sim.start_arc(300.0, victim)
        # Fires at 450 s: after the victim's step 0, before its step 1.
        sim.at(450.0, killer, 0.0, 0)
        sim.run()
        assert seen == [("victim", 0)]
        assert sim.pending_events == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        arc = sim.start_arc(300.0, lambda now, i: False)
        sim.cancel_arc(arc)
        sim.cancel_arc(arc)
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_after_natural_end_is_noop(self):
        sim = Simulator()
        arc = sim.start_arc(300.0, lambda now, i: False)
        sim.run()
        assert sim.events_processed == 1
        sim.cancel_arc(arc)
        assert sim.pending_events == 0

    def test_arc_counts_one_pending_event(self):
        sim = Simulator()
        sim.start_arc(300.0, lambda now, i: i < 10)
        assert sim.pending_events == 1
        sim.run(until=1_000.0)
        # Still mid-arc: exactly one deposited step outstanding.
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_arc_interleaves_fifo_with_other_arcs(self):
        sim = Simulator()
        order = []

        def make(tag):
            def step(now, index):
                order.append((now, tag))
                return index < 1
            return step

        sim.start_arc(300.0, make("a"))
        sim.start_arc(300.0, make("b"))
        sim.run()
        # Same instants, FIFO by registration order at every step.
        assert order == [(300.0, "a"), (300.0, "b"),
                         (600.0, "a"), (600.0, "b")]

    def test_arc_shares_next_bucket_with_at_fast(self):
        """Regression: a callback's at_fast() deposit into the upcoming
        bucket must not be clobbered by an arc continuing into it."""
        sim = Simulator()
        order = []

        def plant():
            sim.at_fast(315.0, order.append, "plain")

        def step(now, index):
            order.append(("arc", now))
            return index < 1

        sim.at_fast(10.0, plant)
        sim.start_arc(20.0, step)
        sim.run()
        assert order == [("arc", 20.0), "plain", ("arc", 320.0)]

    def test_arc_self_cancel_during_callback(self):
        sim = Simulator()
        seen = []
        holder = {}

        def step(now, index):
            seen.append(index)
            sim.cancel_arc(holder["arc"])
            return True  # lies; cancellation must win

        holder["arc"] = sim.start_arc(300.0, step)
        sim.run()
        assert seen == [0]
        assert sim.pending_events == 0


class TestPreloadedStartSlabs:
    """Bulk session-start preloading: slab storage, identical ordering."""

    def _equivalent_sims(self, times, payload_tag="s"):
        """One simulator loaded via preload, one via at_fast, same log."""
        logs = ([], [])
        sims = (Simulator(), Simulator())
        payloads = [f"{payload_tag}{i}" for i in range(len(times))]
        sims[0].preload_starts(times, logs[0].append, payloads)
        for time, payload in zip(times, payloads):
            sims[1].at_fast(time, logs[1].append, payload)
        return sims, logs

    def test_preload_fires_in_column_order(self):
        sim = Simulator()
        fired = []
        times = [10.0, 10.0, 299.0, 300.0, 911.0]
        sim.preload_starts(times, fired.append, list(range(5)))
        assert sim.pending_events == 5
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.pending_events == 0
        assert sim.events_processed == 5

    def test_preload_matches_at_fast_exactly(self):
        times = [0.0, 5.0, 299.9, 300.0, 300.0, 601.0, 2_000.0]
        (pre, fast), (pre_log, fast_log) = self._equivalent_sims(times)
        pre.run()
        fast.run()
        assert pre_log == fast_log
        assert pre.events_processed == fast.events_processed
        assert pre.now == fast.now

    def test_preload_interleaves_with_arcs_and_heap_like_at_fast(self):
        # The full merge: preloaded starts + runtime arcs + heap events
        # must execute in the same global order as the at_fast loading.
        times = [50.0, 340.0, 340.0, 650.0]

        def drive(sim, log, loader):
            payloads = ["w", "x", "y", "z"]
            if loader == "preload":
                sim.preload_starts(times, lambda tag: log.append(("start", tag)),
                                   payloads)
            else:
                for time, tag in zip(times, payloads):
                    sim.at_fast(time, lambda t=tag: log.append(("start", t)))
            sim.at(340.0, lambda: log.append(("heap", 340.0)))
            sim.start_arc(310.0, lambda now, i: (log.append(("arc", now)), i < 2)[1])
            sim.run()
            return log

        a = drive(Simulator(), [], "preload")
        b = drive(Simulator(), [], "at_fast")
        assert a == b
        # Starts within an instant precede runtime events at it: the
        # preloaded seq numbers stay below every runtime seq.
        assert a.index(("start", "x")) < a.index(("heap", 340.0))

    def test_preload_requires_fresh_simulator(self):
        sim = Simulator()
        sim.at_fast(10.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.preload_starts([5.0], lambda p: None, ["a"])

    def test_preload_then_schedule_keeps_counting(self):
        sim = Simulator()
        log = []
        sim.preload_starts([10.0, 400.0], log.append, ["a", "b"])
        sim.at(10.0, log.append, "heap-after")  # scheduled later, fires later
        sim.run()
        assert log == ["a", "heap-after", "b"]

    def test_horizon_leaves_unreached_slabs_pending(self):
        sim = Simulator()
        fired = []
        sim.preload_starts([10.0, 800.0, 5_000.0], fired.append, [1, 2, 3])
        sim.run(until=900.0)
        assert fired == [1, 2]
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 2, 3]

    def test_empty_preload_is_noop(self):
        sim = Simulator()
        sim.preload_starts([], lambda p: None, [])
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0

    def test_runtime_deposits_into_slab_tick_merge(self):
        # An at_fast() deposit landing in a bucket that also holds a
        # preloaded slab must interleave by time, not clobber it.
        sim = Simulator()
        log = []
        sim.preload_starts([10.0, 620.0], log.append, ["early", "late"])

        def plant():
            sim.at_fast(610.0, log.append, "planted")

        sim.at(15.0, plant)
        sim.run()
        assert log == ["early", "planted", "late"]

    def test_preload_rejects_lazily_cancelled_state(self):
        # Regression: a cancelled arc decrements the live count but
        # leaves its entry (and tick) lazily deleted in the bucket;
        # preloading over that state used to double-push the tick and
        # KeyError mid-run.
        sim = Simulator()
        arc = sim.start_arc(300.0, lambda now, i: True)
        sim.cancel_arc(arc)
        assert sim.pending_events == 0
        with pytest.raises(SimulationError):
            sim.preload_starts([5.0, 400.0], lambda p: None, ["a", "b"])

    def test_preload_rejects_past_starts(self):
        # Parity with at_fast: the replaced loop raised on past times,
        # so bulk loading must too instead of running the clock backward.
        sim = Simulator(start_time=100.0)
        with pytest.raises(SimulationError):
            sim.preload_starts([5.0, 200.0], lambda p: None, ["a", "b"])

    def test_preload_rejects_unsorted_times(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.preload_starts([100.0, 5.0], lambda p: None, ["a", "b"])

    def test_preload_rejects_mismatched_columns(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.preload_starts([5.0, 10.0], lambda p: None, ["a"])
