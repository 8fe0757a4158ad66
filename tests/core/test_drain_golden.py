"""Golden digests of every drain: one sha256 per strategy x path.

Every way to drive a replay -- the ``bucket`` and ``columnar``
engines, a streamed chunk replay and a 2-shard split on either engine,
and live admission with a no-op and with an active controller -- must keep
producing the same :func:`bench.checks.result_digest` for every
registered cache strategy that supports it (a future-knowledge strategy
cannot stream; a cross-neighborhood feed cannot shard).  Every workload
family is pinned on ``lfu`` over the bucket engine as well.  A refactor
of any drain is checked against these digests instead of against a
second copy of the old code.

Traces are generated on the ``python`` backend, the reference sampler
every host has, so the corpus holds with and without numpy (the
columnar engine demotes to ``bucket`` without it; the two are
bit-identical).

Re-pin after an intended result change with::

    python -m tests.core.test_drain_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from bench.checks import result_digest
from repro.cache.factory import spec_from_name
from repro.cache.policies import policy_names
from repro.core.config import SimulationConfig
from repro.core.shard import run_sharded
from repro.core.system import CableVoDSystem
from repro.live import AdmissionController, FairnessSpec, ThrottleSpec
from repro.trace.families import family_names
from repro.trace.families.cdf import CDFModel
from repro.trace.families.stress import (
    CatalogChurnModel,
    FlashCrowdModel,
    ZipfBetaModel,
)
from repro.trace.families.tracefile import TraceFileModel
from repro.trace.streaming import open_trace_stream
from repro.trace.synthetic import PowerInfoModel, set_trace_backend
from repro.trace.workload import Workload, cached_workload_trace

from tests.conftest import preserved_trace_backend

GOLDEN_PATH = Path(__file__).with_name("drain_golden.json")
DEMO_CSV = Path(__file__).resolve().parents[2] / "examples/data/demo_trace.csv"

#: Abusive users give the active controller something to defer and deny.
MODEL = PowerInfoModel(n_users=240, n_programs=40, days=2.0, seed=29,
                       abusive_fraction=0.1, abusive_rate_x=5.0)
SMALL_BASE = PowerInfoModel(n_users=120, n_programs=24, days=2.0, seed=31)
FAMILIES = {
    "powerinfo": SMALL_BASE,
    "cdf": CDFModel(n_users=120, n_programs=24, days=2.0, seed=31),
    "flash-crowd": FlashCrowdModel(base=SMALL_BASE),
    "catalog-churn": CatalogChurnModel(base=SMALL_BASE),
    "zipf-beta": ZipfBetaModel(base=SMALL_BASE),
    "trace-driven": TraceFileModel(path=str(DEMO_CSV)),
}


def _config(policy: str, neighborhood_size: int = 60) -> SimulationConfig:
    return SimulationConfig(neighborhood_size=neighborhood_size,
                            per_peer_storage_gb=2.0, warmup_days=0.5,
                            strategy=spec_from_name(policy))


def _trace(model):
    return cached_workload_trace(Workload(model=model))


def _active_controller() -> AdmissionController:
    return AdmissionController(
        throttle=ThrottleSpec(user_budget=4, user_window_seconds=86400.0),
        fairness=FairnessSpec(lead_seconds=14400.0, fill_weight=2.0),
    )


def _streamed(model, config, engine="bucket"):
    stream = open_trace_stream(model, chunk_hours=3)
    system = CableVoDSystem(None, config, engine=engine,
                            catalog=stream.catalog, n_users=stream.n_users)
    return system.run(stream.chunks())


#: Drain name -> ``replay(model, config)``.
DRAINS = {
    "bucket": lambda model, config: CableVoDSystem(
        _trace(model), config, engine="bucket").run(),
    "columnar": lambda model, config: CableVoDSystem(
        _trace(model), config, engine="columnar").run(),
    "streamed": _streamed,
    "2-shard": lambda model, config: run_sharded(
        model, config, n_shards=2, engine="bucket", workers=1),
    "columnar-streamed": lambda model, config: _streamed(
        model, config, engine="columnar"),
    "columnar-2-shard": lambda model, config: run_sharded(
        model, config, n_shards=2, engine="columnar", workers=1),
    "live-noop": lambda model, config: CableVoDSystem(
        _trace(model), config).run(admission=AdmissionController(
            throttle=ThrottleSpec(), fairness=FairnessSpec())),
    "live-active": lambda model, config: CableVoDSystem(
        _trace(model), config).run(admission=_active_controller()),
}


def _supports(policy: str, drain: str) -> bool:
    spec = spec_from_name(policy)
    if drain.endswith("streamed"):
        return not spec.requires_future_knowledge
    if drain.endswith("2-shard"):
        return not spec.uses_global_feed
    return True


CASES = {
    **{f"{policy}/{drain}": (drain, MODEL, _config(policy))
       for policy in policy_names() for drain in DRAINS
       if _supports(policy, drain)},
    # The demo log has 120 users; 20-user neighborhoods give it six.
    **{f"family/{name}": ("bucket", model,
                          _config("lfu", 20 if name == "trace-driven" else 60))
       for name, model in FAMILIES.items()},
}


def case_digest(case: str) -> str:
    drain, model, config = CASES[case]
    return result_digest(DRAINS[drain](model, config))


def _pinned() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def python_backend():
    with preserved_trace_backend():
        set_trace_backend("python")
        yield


@pytest.mark.parametrize("case", sorted(CASES))
def test_drain_matches_golden(case):
    assert case_digest(case) == _pinned()[case]


def test_golden_file_pins_exactly_the_cases():
    assert sorted(_pinned()) == sorted(CASES)


def test_columnar_chunk_drains_pin_the_bucket_digest():
    """Columnar over chunks replays exactly what the bucket engine does."""
    pinned = _pinned()
    chunked = [case for case in CASES
               if case.split("/")[1] in ("columnar-streamed",
                                         "columnar-2-shard")]
    assert len(chunked) == 2 * len(policy_names()) - 2
    for case in chunked:
        assert pinned[case] == pinned[case.split("/")[0] + "/bucket"], case


def test_every_family_is_pinned():
    assert sorted(FAMILIES) == family_names()


def test_active_controller_defers_and_denies():
    """The live-active cases exercise the deferred-retry path."""
    report = DRAINS["live-active"](MODEL, _config("lfu")).live
    assert report.deferrals > 0
    assert report.denied > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_drain_golden --write")
    with preserved_trace_backend():
        set_trace_backend("python")
        corpus = {case: case_digest(case) for case in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
