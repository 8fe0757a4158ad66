"""Simulator loop semantics: clock, horizons, error handling."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.0).now == 42.0

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        assert sim.now == 10.0

    def test_clock_never_goes_backward(self):
        sim = Simulator()
        times = []
        for t in (5.0, 1.0, 9.0, 3.0):
            sim.at(t, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestScheduling:
    def test_at_rejects_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append((sim.now, n))
            if n < 3:
                sim.at(sim.now + 1.0, chain, n + 1)

        sim.at(0.0, chain, 0)
        sim.run()
        assert seen == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.at(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]


class TestRun:
    def test_run_drains_queue(self):
        sim = Simulator()
        for t in range(10):
            sim.at(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 10

    def test_run_until_horizon_stops(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, fired.append, t)
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.events_processed == 2

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, fired.append, 5.0)
        sim.run(until=5.0)
        assert fired == [5.0]

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_until_rejects_past_horizon(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_can_resume_after_horizon(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, fired.append, t)
        sim.run(until=1.5)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as e:
                errors.append(e)

        sim.at(1.0, nested)
        sim.run()
        assert len(errors) == 1


class TestDeterminism:
    def test_identical_schedules_identical_traces(self):
        def run_once():
            sim = Simulator()
            log = []
            for t in (3.0, 1.0, 1.0, 2.0):
                sim.at(t, lambda t=t: log.append((sim.now, t)))
            sim.run()
            return log

        assert run_once() == run_once()
