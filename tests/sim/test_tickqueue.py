"""Tick-bucket fast path: the heap/bucket merge, arcs, start slabs."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestHeapBucketMerge:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.preload_starts([0.0, 100.0, 900.0], fired.append,
                           [0.0, 100.0, 900.0])
        sim.at(500.0, fired.append, 500.0)
        sim.run()
        assert fired == [0.0, 100.0, 500.0, 900.0]

    def test_fifo_within_a_tick(self):
        sim = Simulator()
        order = []
        # All land in the same 300 s bucket at the same instant.
        sim.preload_starts([42.0] * 5, order.append, list("abcde"))
        sim.run()
        assert order == list("abcde")

    def test_interleaves_with_heap_events_by_fifo(self):
        """at() and start_arc() share one sequence numbering."""
        sim = Simulator()
        order = []

        def arc(tag):
            return lambda now, index: order.append(tag)

        sim.at(310.0, order.append, "heap-1")
        sim.start_arc(310.0, arc("bucket-2"))
        sim.at(310.0, order.append, "heap-3")
        sim.start_arc(310.0, arc("bucket-4"))
        sim.run()
        assert order == ["heap-1", "bucket-2", "heap-3", "bucket-4"]

    def test_sub_tick_ordering_within_bucket(self):
        """Entries in one bucket still fire in exact time order."""
        sim = Simulator()
        fired = []
        for t in (299.0, 1.0, 150.5, 150.0):
            sim.start_arc(t, lambda now, index: fired.append(now))
        sim.run()
        assert fired == [1.0, 150.0, 150.5, 299.0]

    def test_heap_event_inside_the_draining_bucket(self):
        """A callback's at() into the draining bucket fires in order."""
        sim = Simulator()
        fired = []

        def schedule_sibling(_):
            # t=20 is inside the bucket currently draining.
            sim.at(20.0, fired.append, "late")

        sim.preload_starts([10.0], schedule_sibling, [None])
        sim.start_arc(30.0, lambda now, index: fired.append("grid"))
        sim.run()
        assert fired == ["late", "grid"]

    def test_heap_event_starts_an_arc_in_the_next_pending_bucket(self):
        """A heap event before the next pending bucket's start runs
        before that bucket activates, so its arc may land there."""
        sim = Simulator()
        log = []

        def step(now, index):
            log.append(("arc", now))
            return index < 2

        def plant(now):
            log.append(("heap", now))
            sim.start_arc(610.0, step)

        sim.preload_starts([10.0, 620.0], lambda t: log.append(("slab", t)),
                           [10.0, 620.0])
        sim.at(15.0, plant, 15.0)
        sim.run()
        assert log == [("slab", 10.0), ("heap", 15.0), ("arc", 610.0),
                       ("slab", 620.0), ("arc", 910.0), ("arc", 1210.0)]
        assert sim.events_processed == 6

    def test_bucket_callback_cannot_start_an_arc_in_its_own_bucket(self):
        sim = Simulator()

        def plant(_):
            sim.start_arc(20.0, lambda now, index: False)

        sim.preload_starts([10.0], plant, [None])
        with pytest.raises(SimulationError, match="currently draining"):
            sim.run()

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.preload_starts([100.0, 700.0], fired.append, [100.0, 700.0])
        sim.at(250.0, fired.append, 250.0)
        sim.run(until=300.0)
        assert fired == [100.0, 250.0]
        assert sim.now == 300.0
        sim.run()
        assert fired == [100.0, 250.0, 700.0]

    @given(st.lists(st.floats(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_property_matches_heap_order(self, times):
        """A start column preloaded as slabs fires exactly like at()."""
        times = sorted(times)
        payloads = list(enumerate(times))
        slab, heap = Simulator(), Simulator()
        slab_log, heap_log = [], []
        slab.preload_starts(times, slab_log.append, payloads)
        for time, payload in zip(times, payloads):
            heap.at(time, heap_log.append, payload)
        slab.run()
        heap.run()
        assert slab_log == heap_log


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

    def test_arc_shares_next_bucket_with_a_new_arc(self):
        """Regression: a callback's start_arc() into the upcoming bucket
        must not be clobbered by an arc continuing into it."""
        sim = Simulator()
        order = []

        def plant(_):
            sim.start_arc(315.0, lambda now, index: order.append("new"))

        def step(now, index):
            order.append(("arc", now))
            return index < 1

        sim.preload_starts([10.0], plant, [None])
        sim.start_arc(20.0, step)
        sim.run()
        assert order == [("arc", 20.0), "new", ("arc", 320.0)]


class TestPreloadedStartSlabs:
    """Bulk session-start preloading: slab storage, identical ordering."""

    def _equivalent_sims(self, times, payload_tag="s"):
        """One simulator loaded via preload, one via at(), same log."""
        logs = ([], [])
        sims = (Simulator(), Simulator())
        payloads = [f"{payload_tag}{i}" for i in range(len(times))]
        sims[0].preload_starts(times, logs[0].append, payloads)
        for time, payload in zip(times, payloads):
            sims[1].at(time, logs[1].append, payload)
        return sims, logs

    def test_preload_fires_in_column_order(self):
        sim = Simulator()
        fired = []
        times = [10.0, 10.0, 299.0, 300.0, 911.0]
        sim.preload_starts(times, fired.append, list(range(5)))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.events_processed == 5

    def test_preload_matches_at_loop_exactly(self):
        times = [0.0, 5.0, 299.9, 300.0, 300.0, 601.0, 2_000.0]
        (pre, loop), (pre_log, loop_log) = self._equivalent_sims(times)
        pre.run()
        loop.run()
        assert pre_log == loop_log
        assert pre.events_processed == loop.events_processed
        assert pre.now == loop.now

    def test_preload_interleaves_with_arcs_and_heap_like_at_loop(self):
        # The full merge: preloaded starts + runtime arcs + heap events
        # must execute in the same global order as loading through at().
        times = [50.0, 340.0, 340.0, 650.0]

        def drive(sim, log, loader):
            payloads = ["w", "x", "y", "z"]
            if loader == "preload":
                sim.preload_starts(times, lambda tag: log.append(("start", tag)),
                                   payloads)
            else:
                for time, tag in zip(times, payloads):
                    sim.at(time, lambda t=tag: log.append(("start", t)))
            sim.at(340.0, lambda: log.append(("heap", 340.0)))
            sim.start_arc(310.0, lambda now, i: (log.append(("arc", now)), i < 2)[1])
            sim.run()
            return log

        a = drive(Simulator(), [], "preload")
        b = drive(Simulator(), [], "at")
        assert a == b
        # Starts within an instant precede runtime events at it: the
        # preloaded seq numbers stay below every runtime seq.
        assert a.index(("start", "x")) < a.index(("heap", 340.0))

    def test_preload_requires_fresh_simulator(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.preload_starts([5.0], lambda p: None, ["a"])
        sim = Simulator()
        sim.start_arc(300.0, lambda now, i: False)
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
        sim.run()
        assert fired == [1, 2, 3]

    def test_empty_preload_is_noop(self):
        sim = Simulator()
        sim.preload_starts([], lambda p: None, [])
        sim.run()
        assert sim.events_processed == 0

    def test_runtime_deposits_into_slab_tick_merge(self):
        # An arc started into a bucket that also holds a preloaded slab
        # must interleave by time, not clobber it.
        sim = Simulator()
        log = []

        def start(tag):
            log.append(tag)
            if tag == "early":
                sim.start_arc(610.0, lambda now, index: log.append("planted"))

        sim.preload_starts([10.0, 620.0], start, ["early", "late"])
        sim.run()
        assert log == ["early", "planted", "late"]

    def test_preload_rejects_past_starts(self):
        # Parity with at(): a past start raises instead of running the
        # clock backward.
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
        with pytest.raises(SimulationError):
            sim.preload_starts([5.0, 10.0], lambda *row: None, ["a", "b"],
                               ["c"])

    def test_preload_rejects_a_slab_without_argument_columns(self):
        with pytest.raises(SimulationError):
            Simulator().preload_starts([5.0], lambda: None)

    def test_argument_columns_fire_as_rows(self):
        # Start i fires callback(columns[0][i], columns[1][i], ...).
        sim = Simulator()
        fired = []
        sim.preload_starts(
            [10.0, 20.0, 700.0],
            lambda user, program, duration: fired.append(
                (sim.now, user, program, duration)),
            [4, 5, 6], [1, 2, 3], [60.0, 70.0, 80.0])
        sim.run()
        assert fired == [(10.0, 4, 1, 60.0), (20.0, 5, 2, 70.0),
                         (700.0, 6, 3, 80.0)]
