"""Live headend mode: online request serving under admission control.

Where the rest of :mod:`repro` *replays* a trace offline, this package
turns the headend into something shaped like a service: the simulator
consumes a request stream in arrival order through an admission layer
in front of the index server --

* :class:`~repro.live.specs.ThrottleSpec` / ``"throttle"`` -- a
  sliding-window overload throttle (per-user and per-program session
  budgets over configurable windows, deny/defer verdicts with
  retry-after accounting);
* :class:`~repro.live.specs.FairnessSpec` / ``"vtc"`` -- a
  virtual-counter fairness scheduler ordering competing session starts
  by weighted virtual time over consumed coax bits and peer-storage
  fills.

Both are registered by name in the policy registry
(``repro.cache.policies``), serialize into the scenario schema
(``live`` / ``throttle`` / ``fairness`` knobs, ``--live --throttle
--fairness`` CLI flags), and compose inside one
:class:`~repro.live.admission.AdmissionController` that
:meth:`~repro.core.system.CableVoDSystem.run` drains through when given
one as ``admission``, over a materialized trace or a chunk stream.
With no-op policies (unlimited windows, unlimited lead) the live drain
is bit-identical to the offline ``bucket`` engine.
"""

from __future__ import annotations

from repro.live.admission import (
    ADMIT,
    DEFER,
    DENY,
    AdmissionController,
    LiveReport,
    SlidingWindowThrottle,
    Verdict,
    VirtualCounterScheduler,
)
from repro.live.specs import (
    FairnessSpec,
    LiveAdmissionSpec,
    ThrottleSpec,
    coerce_live_spec,
    live_spec_from_dict,
    live_spec_from_name,
    live_spec_to_dict,
)

__all__ = [
    "ADMIT",
    "DEFER",
    "DENY",
    "AdmissionController",
    "FairnessSpec",
    "LiveAdmissionSpec",
    "LiveReport",
    "SlidingWindowThrottle",
    "ThrottleSpec",
    "Verdict",
    "VirtualCounterScheduler",
    "coerce_live_spec",
    "live_spec_from_dict",
    "live_spec_from_name",
    "live_spec_to_dict",
]
