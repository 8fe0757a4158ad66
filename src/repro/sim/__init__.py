"""Discrete-event simulation engine.

A small, deterministic discrete-event core in the style of SimPy's event
loop but purpose-built for trace-driven network simulations:

* :class:`~repro.sim.engine.Simulator` -- the event loop: schedule
  callbacks at absolute simulated times, preload or extend the
  session-start storm, and run until the queues drain (or until a
  horizon).
* :class:`~repro.sim.tickqueue.TickBucketQueue` /
  :class:`~repro.sim.tickqueue.SessionArc` -- the tick-bucketed fast
  path for the per-segment event storm: O(1) tuple-slab scheduling and
  whole-session arcs, merged with the heap in exact FIFO order.
* :class:`~repro.sim.random_streams.RandomStreams` -- named, independently
  seeded random generators so that changing how much randomness one
  subsystem consumes does not perturb any other subsystem.
"""

from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.sim.tickqueue import SessionArc, TickBucketQueue

__all__ = [
    "Simulator",
    "RandomStreams",
    "SessionArc",
    "TickBucketQueue",
]
