"""Correctness checks for one scenario point's result.

Two layers of checking, so a speed-up can never trade away a result:

* :func:`result_digest` -- a sha256 over everything the run produced:
  every counter, ``events_processed``, ``trace_end_time``, every bucket
  of every meter dict (as ``float.hex``) and the live-admission
  tallies.  At a workload's default seed it must equal the digest
  pinned in ``bench/golden.json``; at any seed, every repeat of a run
  (traced or not) must produce the same digest.
* :func:`invariant_errors` -- structural laws that hold at any seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Optional

#: Relative slack on float sums that fold the same bits in another order.
_BITS_TOLERANCE = 1e-9


def _text(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def result_digest(result) -> str:
    """sha256 of a :class:`~repro.core.results.SimulationResult`."""
    digest = hashlib.sha256()

    def put(*items) -> None:
        digest.update(("|".join(_text(i) for i in items) + "\n").encode())

    counters = result.counters
    for f in dataclasses.fields(counters):
        put("counter", f.name, getattr(counters, f.name))
    put("events", result.events_processed)
    put("trace_end", result.trace_end_time)
    put("plant", result.n_users, result.n_neighborhoods)

    def meter(label: str, m) -> None:
        buckets = m.buckets()
        for hour in sorted(buckets):
            put(label, hour, buckets[hour])

    meter("server", result.server_meter)
    meter("total", result.total_meter)
    for label, meters in (("coax", result.coax_meters),
                          ("upstream", result.upstream_meters),
                          ("totals", result.total_meters),
                          ("servers", result.server_meters)):
        for neighborhood in sorted(meters):
            meter(f"{label}{neighborhood}", meters[neighborhood])
    live = result.live
    if live is not None:
        put("live", live.admitted, live.denied, live.deferrals)
        for name in ("user_requests", "user_admitted", "user_denied",
                     "user_deferrals", "user_coax_bits", "user_fills",
                     "user_served_seconds"):
            tally = getattr(live, name)
            for user in sorted(tally):
                put(name, user, tally[user])
    return digest.hexdigest()


def invariant_errors(result, records: Optional[int]) -> List[str]:
    """Broken structural invariants of one result (empty when sound).

    ``records`` is the number of trace records the point replayed
    (``None`` skips that check).  Every record becomes one session, or
    -- in live mode -- one admitted session or one denial.
    """
    errors: List[str] = []
    c = result.counters
    served = c.local_hits + c.peer_hits + c.server_deliveries
    if c.segment_requests != served:
        errors.append(f"segment_requests {c.segment_requests} != local + "
                      f"peer + server deliveries {served}")
    live = result.live
    if live is not None and c.sessions != live.admitted:
        errors.append(f"sessions {c.sessions} != live admissions "
                      f"{live.admitted}")
    requests = c.sessions + (live.denied if live is not None else 0)
    if records is not None and requests != records:
        errors.append(f"session requests {requests} != trace records "
                      f"{records}")
    if c.sessions <= 0 or result.events_processed <= 0:
        errors.append("the run replayed no sessions")
    server = result.server_meter.total_bits()
    coax = sum(m.total_bits() for m in result.coax_meters.values())
    total = result.total_meter.total_bits()
    slack = _BITS_TOLERANCE * max(total, 1.0)
    if not server <= coax + slack:
        errors.append(f"server bits {server!r} > coax bits {coax!r}")
    if not coax <= total + slack:
        errors.append(f"coax bits {coax!r} > total bits {total!r}")
    return errors
