"""The benchmark's workload table and the scenario files behind it.

Each workload is a scenario or sweep file under ``bench/workloads/``
that ``repro-vod run`` / ``repro-vod sweep`` replays by hand.  What a
scenario file cannot say lives here: the pool size the workload runs
with (scenario files carry no worker count), the generator backend its
sizes assume, and the shrunken ``--smoke`` sizes the self-tests use.

This module reads JSON only; :func:`load_scenarios` imports ``repro``
lazily so the parent process never loads the simulator.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: The trace-generator backend every workload's sizes assume; a run
#: whose resolved backend differs fails instead of measuring another
#: program.
TRACE_BACKEND = "numpy"


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload.

    Attributes
    ----------
    name:
        Workload name; the scenario file is ``workloads/<name>.json``.
    workers:
        Pool size passed to ``run_scenarios``.  Pooled workloads use 2,
        the CPU count of the host the sizes were chosen on.
    smoke:
        Fields deep-merged into the scenario (a sweep's ``base``) under
        ``--smoke``: the same code paths at a size the self-tests can
        afford.
    """

    name: str
    workers: int
    smoke: Dict[str, Any] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return os.path.join(WORKLOAD_DIR, self.name + ".json")

    def payload(self, smoke: bool = False) -> Dict[str, Any]:
        """The scenario/sweep file as a dict, shrunk under ``smoke``."""
        with open(self.path) as fh:
            payload = json.load(fh)
        if smoke:
            target = payload["base"] if payload.get("kind") == "sweep" else payload
            _merge(target, self.smoke)
        return payload

    def n_points(self) -> int:
        """Scenario points per run (one result each), without ``repro``."""
        payload = self.payload()
        if payload.get("kind") != "sweep":
            return 1
        count = 1
        for points in payload.get("axes", {}).values():
            count *= len(points)
        return count


def _merge(into: Dict[str, Any], patch: Dict[str, Any]) -> None:
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = copy.deepcopy(value)


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w for w in (
        BenchWorkload(
            name="replay-medium", workers=1,
            smoke={"trace": {"n_users": 600, "n_programs": 120, "days": 2.0},
                   "config": {"neighborhood_size": 50, "warmup_days": 1.0}},
        ),
        BenchWorkload(
            name="live-abusive", workers=1,
            smoke={"trace": {"n_users": 600, "n_programs": 120, "days": 2.0},
                   "config": {"neighborhood_size": 50, "warmup_days": 1.0}},
        ),
        BenchWorkload(
            name="churn-sweep", workers=2,
            smoke={"trace": {"base": {"n_users": 400, "n_programs": 80,
                                      "days": 2.0},
                             "churn_day": 1.0},
                   "config": {"neighborhood_size": 40, "warmup_days": 1.0}},
        ),
        BenchWorkload(
            name="metro-sharded", workers=2,
            smoke={"trace": {"n_users": 4000, "n_programs": 400, "days": 1.0},
                   "config": {"neighborhood_size": 250, "warmup_days": 0.5}},
        ),
    )
}


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


def load_golden() -> Dict[str, Any]:
    """Pinned digests: ``{"full"|"smoke": {workload: [sha256, ...]}}``."""
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def load_scenarios(workload: BenchWorkload, seed: Optional[int],
                   smoke: bool = False) -> Tuple[List[Any], bool]:
    """The workload's scenario points, seed override applied.

    Returns ``(scenarios, at_default_seed)``; the second value says
    whether the override left every workload model as the file wrote
    it, which is when the golden digests apply.
    """
    from repro.scenario.model import Scenario
    from repro.scenario.sweep import Sweep

    payload = workload.payload(smoke)
    if payload.get("kind") == "sweep":
        scenarios = Sweep.from_dict(payload).scenarios()
    else:
        scenarios = [Scenario.from_dict(payload)]
    if seed is None:
        return scenarios, True
    seeded = [replace(s, seed=seed) for s in scenarios]
    same = all(a.model() == b.model() for a, b in zip(seeded, scenarios))
    return seeded, same
