"""repro -- peer-to-peer video-on-demand caching on cable networks.

A full reproduction of *Deploying Video-on-Demand Services on Cable
Networks* (Allen, Zhao, Wolski -- ICDCS 2007): a cooperative proxy cache
built from cable subscribers' set-top boxes, orchestrated per coaxial
neighborhood by a headend index server, evaluated with a trace-driven
discrete-event simulation.

Quickstart
----------
>>> from repro import PowerInfoModel, SimulationConfig, generate_trace, run_simulation
>>> trace = generate_trace(PowerInfoModel(n_users=500, n_programs=100, days=3.0))
>>> result = run_simulation(trace, SimulationConfig(neighborhood_size=250,
...                                                 warmup_days=0.5))
>>> 0.0 <= result.peak_reduction() <= 1.0
True

Package map
-----------
``repro.sim``         discrete-event engine and seeded random streams
``repro.trace``       workload model: records, synthesis, scaling, stats
``repro.topology``    HFC plant: users placed into coax neighborhoods
``repro.cache``       the cache policy engine (LRU / LFU / Oracle /
                      Global-LFU / GDSF / ARC / threshold), placement on
                      set-top peers, index server (two-channel limit)
``repro.core``        the assembled system, config, metering, results
``repro.scenario``    declarative scenarios/sweeps: one serializable
                      schema for traces, configs, and config grids
``repro.baselines``   no-cache and multicast comparison models
``repro.analysis``    figure-level analyses (skew, attrition, feasibility)
``repro.experiments`` one module per paper table/figure (the sweepable
                      ones are thin ``repro.scenario`` definitions)
"""

from repro.cache import (
    ARCSpec,
    FrequencySketchSpec,
    GDSFSpec,
    GlobalLFUSpec,
    LFUSpec,
    LRUSpec,
    NoCacheSpec,
    OracleSpec,
    ThresholdSpec,
    spec_from_dict,
    spec_from_name,
    spec_to_dict,
)
from repro.core import SimulationConfig, SimulationResult, run_simulation
from repro.scenario import (
    Scenario,
    Sweep,
    iter_sweep_rows,
    load_scenario,
    load_sweep,
    run_scenario,
    run_scenarios,
    run_sweep,
    scenario_row,
)
from repro.trace import (
    Catalog,
    PowerInfoModel,
    Program,
    SessionRecord,
    Trace,
    Workload,
    generate_trace,
    scale_catalog,
    scale_population,
)

__version__ = "1.2.0"

__all__ = [
    "PowerInfoModel",
    "generate_trace",
    "scale_catalog",
    "scale_population",
    "Catalog",
    "Program",
    "SessionRecord",
    "Trace",
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
    "Scenario",
    "Sweep",
    "Workload",
    "iter_sweep_rows",
    "run_scenario",
    "run_scenarios",
    "run_sweep",
    "scenario_row",
    "load_scenario",
    "load_sweep",
    "NoCacheSpec",
    "LRUSpec",
    "LFUSpec",
    "OracleSpec",
    "GlobalLFUSpec",
    "GDSFSpec",
    "ARCSpec",
    "ThresholdSpec",
    "FrequencySketchSpec",
    "spec_from_name",
    "spec_from_dict",
    "spec_to_dict",
    "__version__",
]
