"""The paper's primary contribution, assembled.

:class:`~repro.core.system.CableVoDSystem` wires the substrates together
-- HFC topology, set-top peers, index servers with a caching strategy,
the central media server -- and plays a workload trace through them on
the discrete-event engine, producing a
:class:`~repro.core.results.SimulationResult` with the per-hour
bandwidth series every experiment in the paper reports on.

Public entry point::

    from repro.core import SimulationConfig, run_simulation
    result = run_simulation(trace, SimulationConfig(neighborhood_size=1000))
    print(result.peak_server_gbps())
"""

from repro.core.config import SimulationConfig
from repro.core.meter import HourlyMeter
from repro.core.parallel import run_many
from repro.core.results import SimulationCounters, SimulationResult
from repro.core.runner import resolve_engine, run_simulation
from repro.core.shard import run_sharded
from repro.core.system import CableVoDSystem, columnar_supported

__all__ = [
    "SimulationConfig",
    "HourlyMeter",
    "SimulationCounters",
    "SimulationResult",
    "run_simulation",
    "run_many",
    "run_sharded",
    "resolve_engine",
    "columnar_supported",
    "CableVoDSystem",
]
