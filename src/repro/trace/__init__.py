"""Workload traces: data model, statistics, synthesis, and scaling.

The paper's evaluation is driven by the *PowerInfo* trace of a deployed
VoD system (China Telecom, 2004).  That trace is proprietary, so this
package provides:

* :mod:`repro.trace.records` -- the trace data model (`Program`,
  `Catalog`, `SessionRecord`, `Trace`);
* :mod:`repro.trace.synthetic` -- a statistical workload generator
  calibrated to every property of the trace the paper publishes
  (popularity skew, session-length mixture, diurnal profile,
  post-introduction popularity decay, 17 Gb/s no-cache peak), with a
  numpy-gated vectorized backend (:mod:`repro.trace.vectorized`,
  selected via ``REPRO_TRACE_BACKEND``);
* :mod:`repro.trace.families` -- the workload-family registry
  (``@workload_family``): the powerinfo model above plus trace-driven
  log replay, piecewise-CDF synthetics, and stress shapes, all
  serializable specs regenerating byte-identical traces;
* :mod:`repro.trace.share` -- the one on-disk trace format: slice
  files of flat column chunks, through which sweep workers attach a
  published trace instead of regenerating it and shard tasks read
  their slice of a split metro;
* :mod:`repro.trace.scaling` -- the paper's §V-A population/catalog
  scaling transforms;
* :mod:`repro.trace.workload` -- a model plus those transforms as one
  hashable, picklable value (`Workload`), with process-wide memoized
  materialization (`cached_workload_trace`);
* :mod:`repro.trace.stats` -- the analyses behind Figures 2, 3, 6, 7
  and 12;
* :mod:`repro.trace.io` -- CSV serialization so generated workloads can
  be saved and replayed.
"""

from repro.trace.families import WorkloadModel, family_names, workload_family
from repro.trace.records import Catalog, Program, SessionRecord, Trace
from repro.trace.synthetic import (
    PowerInfoModel,
    generate_trace,
    resolve_trace_backend,
    set_trace_backend,
)
from repro.trace.scaling import scale_catalog, scale_population
from repro.trace.workload import Workload, cached_workload_trace

__all__ = [
    "Catalog",
    "Program",
    "SessionRecord",
    "Trace",
    "PowerInfoModel",
    "Workload",
    "WorkloadModel",
    "cached_workload_trace",
    "family_names",
    "generate_trace",
    "resolve_trace_backend",
    "scale_catalog",
    "scale_population",
    "set_trace_backend",
    "workload_family",
]
