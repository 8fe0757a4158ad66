"""Execute scenarios and sweeps, returning standard result rows.

One row shape serves every consumer -- the paper-figure experiments,
the CLI's file-driven runs, and ad-hoc sweeps: the strategy label, the
deployment knobs, and the paper's headline metrics (extrapolated peak
server load with its 5%/95% quantile band, reduction vs. no cache, hit
ratio).  :func:`result_row` is that single definition;
``repro.experiments.base.strategy_rows`` builds its rows through it
too, which is what makes legacy experiments and scenario runs
row-identical by construction.  Scenarios that name extra metric sets
(:mod:`repro.scenario.metrics`) or baselines
(:mod:`repro.baselines.registry`) get those columns merged into the
same rows, rate columns extrapolated by the scenario's ``scale``.

Sweeps execute through :func:`repro.core.parallel.iter_task_results`:
every expanded scenario becomes one
:class:`~repro.core.parallel.SimulationTask` carrying its (possibly
transformed) :class:`~repro.trace.workload.Workload`, so points that
vary the workload -- the Fig 15 population x catalog grid -- fan out
across workers exactly like points that only vary the config.  Serial
execution replays the process-wide memoized traces; parallel workers
attach to a published trace or regenerate it from the seeded workload,
and shard tasks read their slice of one split per run.  All paths are
bit-identical, rows always come back in expansion order, and
:func:`iter_sweep_rows` yields each row as its result lands -- the
CLI's live-progress stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.baselines.registry import RATE_COLUMNS
from repro.core.config import SimulationConfig
from repro.core.parallel import (
    ShardSpec,
    SimulationTask,
    iter_task_results,
)
from repro.core.results import SimulationResult
from repro.scenario.metrics import metric_columns
from repro.scenario.model import Scenario
from repro.scenario.sweep import Sweep


def result_row(config: SimulationConfig, result: SimulationResult,
               scale: float = 1.0) -> Dict[str, Any]:
    """The standard per-run result row (rates extrapolated by ``scale``)."""
    low, high = result.peak_server_quantiles_gbps()
    return {
        "strategy": config.strategy.label,
        "neighborhood": config.neighborhood_size,
        "per_peer_gb": config.per_peer_storage_gb,
        "server_gbps": result.peak_server_gbps() / scale,
        "server_gbps_p5": low / scale,
        "server_gbps_p95": high / scale,
        "reduction_pct": 100.0 * result.peak_reduction(),
        "hit_pct": 100.0 * result.counters.hit_ratio,
    }


def scenario_task(scenario: Scenario) -> SimulationTask:
    """The :class:`SimulationTask` executing one scenario."""
    return SimulationTask(
        workload=scenario.workload(),
        config=scenario.config,
        engine=scenario.engine,
        baselines=scenario.baselines,
        live=((scenario.throttle, scenario.fairness)
              if scenario.live else None),
        label=scenario.label,
    )


def scenario_tasks(scenario: Scenario) -> List[SimulationTask]:
    """The task group executing one scenario (one task per shard).

    Unsharded, non-streaming scenarios stay a single whole-plant task;
    otherwise one :class:`ShardSpec`-carrying task per neighborhood
    group, whose results the caller reduces with
    :meth:`SimulationResult.merged` (sweeps do this per point).
    """
    task = scenario_task(scenario)
    if scenario.shards == 1 and not scenario.streaming:
        return [task]
    return [
        replace(task, shard=ShardSpec(n_shards=scenario.shards, index=index,
                                      streaming=scenario.streaming))
        for index in range(scenario.shards)
    ]


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Run one scenario: :func:`run_scenarios` over a one-item list."""
    return run_scenarios([scenario])[0]


def _scenario_row(scenario: Scenario, result: SimulationResult,
                  baseline_values: Optional[Dict[str, float]] = None,
                  cols: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Standard row + metric sets + scaled baselines + point columns."""
    row = result_row(scenario.config, result, scale=scenario.scale)
    if scenario.metrics:
        row.update(metric_columns(scenario.metrics, scenario, result))
    if baseline_values:
        for key, value in baseline_values.items():
            row[key] = value / scenario.scale if key in RATE_COLUMNS else value
    if cols:
        row.update(cols)
    return row


def scenario_row(scenario: Scenario,
                 result: Optional[SimulationResult] = None) -> Dict[str, Any]:
    """The standard row for one scenario (running it if needed).

    When the scenario is run here, its baseline columns are computed
    too; a caller passing a pre-computed ``result`` gets the metric
    columns but no baselines (the trace is not rebuilt for them).
    """
    if result is None:
        row = run_sweep(scenario)[0]
    else:
        row = _scenario_row(scenario, result)
    if scenario.label:
        row["label"] = scenario.label
    return row


def run_scenarios(
    scenarios: Sequence[Scenario],
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Run many scenarios, sharing one trace per distinct workload.

    Results come back in scenario order, bit-identical for any worker
    count.  ``workers=None`` defers to the process default
    (:func:`repro.core.parallel.get_default_workers`, i.e. the CLI's
    ``--workers`` flag, else ``REPRO_WORKERS``, else one per CPU).
    """
    # Baselines are row-level; result-only callers skip computing them.
    groups = [[replace(task, baselines=()) for task in scenario_tasks(s)]
              for s in scenarios]
    outcomes = iter_task_results([t for group in groups for t in group],
                                 workers=workers)
    return [_reduce_group(len(group), outcomes) for group in groups]


def _reduce_group(size: int, outcomes: Iterator[Tuple[SimulationResult,
                                                      Dict[str, float]]]
                  ) -> SimulationResult:
    """Collapse one scenario's next ``size`` outcomes into its result.

    A single-task group passes its result straight through (keeping the
    monolithic path byte-for-byte untouched); a shard group reduces
    through :meth:`SimulationResult.merged`, which reproduces the
    monolithic fold exactly.
    """
    results = [next(outcomes)[0] for _ in range(size)]
    if size == 1:
        return results[0]
    return SimulationResult.merged(results)


def iter_sweep_rows(
    sweep: Union[Sweep, Scenario],
    workers: Optional[int] = None,
) -> Iterator[Dict[str, Any]]:
    """Expand and run a sweep, yielding rows in order as results land.

    Each row is :func:`result_row` extrapolated by that scenario's
    ``scale``, plus its metric sets, scaled baseline columns, and the
    point's extra columns.  Row order always matches expansion order
    (results stream back ordered); long grids therefore show live,
    stable progress.  A bare :class:`Scenario` is a one-point sweep.
    """
    if isinstance(sweep, Scenario):
        expanded: List[Tuple[Scenario, Dict[str, Any]]] = [(sweep, {})]
    else:
        expanded = sweep.expand()
    groups = [scenario_tasks(scenario) for scenario, _ in expanded]
    outcomes = iter_task_results([t for group in groups for t in group],
                                 workers=workers)
    for (scenario, cols), group in zip(expanded, groups):
        if len(group) == 1 and group[0].shard is None:
            result, baseline_values = next(outcomes)
        else:
            result = _reduce_group(len(group), outcomes)
            baseline_values = {}
        yield _scenario_row(scenario, result, baseline_values, cols)


def run_sweep(sweep: Union[Sweep, Scenario],
              workers: Optional[int] = None) -> List[Dict[str, Any]]:
    """Expand and run a sweep, returning one standard row per point.

    The list form of :func:`iter_sweep_rows` -- the
    ``ExperimentResult``-compatible table the experiments and the CLI
    render.
    """
    return list(iter_sweep_rows(sweep, workers=workers))
