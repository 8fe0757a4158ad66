"""A heap-only reference for the simulator's calendar arcs."""

from repro.sim.engine import Simulator
from repro.units import SEGMENT_SECONDS


class HeapSimulator(Simulator):
    """A :class:`Simulator` whose arcs walk the heap one step at a time.

    ``start_arc`` schedules the first step with :meth:`Simulator.at`,
    and each step that returns truthy schedules the next one
    ``SEGMENT_SECONDS`` later.  Sequence numbers are drawn at the same
    moments as the calendar arc draws them (registration, then each
    deposit), so a correct bucket merge fires in exactly this order.
    Starting an arc is never refused here, so this is also the
    reference for when the calendar accepts one.  Install it as a
    system's ``_sim`` before ``run()`` to replay a trace on the heap.
    """

    __slots__ = ()

    def start_arc(self, time, fn, *args):
        self.at(time, self._arc_step, fn, 0, args)

    def _arc_step(self, fn, index, args):
        if fn(self._now, index, *args):
            self.at(self._now + SEGMENT_SECONDS, self._arc_step,
                    fn, index + 1, args)
