"""Set-top box peers.

Each cable subscriber's set-top box contributes disk space and two
coaxial channels to the neighborhood's cooperative cache (paper sections
IV-B.3 and V-C).  :mod:`repro.peers.settop` models those two scarce
resources -- storage bytes and concurrent streams -- with strict
accounting; a box's storage is accounted by the placement map that
owns it (:class:`repro.cache.segments.PlacementMap`).
"""

from repro.peers.settop import SetTopBox

__all__ = ["SetTopBox"]
