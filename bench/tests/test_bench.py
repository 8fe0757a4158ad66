"""Self-tests of the repository benchmark, at ``--smoke`` size.

The benchmark's own modules are scripts that import each other by
plain name (``python3 bench/run.py`` puts ``bench/`` first on the
path); the in-process tests below do the same.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# The workloads declare the numpy trace backend; without numpy every
# repeat fails by design.
pytest.importorskip("numpy")

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

WORKLOADS = list(suite.WORKLOADS)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def contract():
    return suite.load_contract()


@pytest.fixture(scope="module")
def end_to_end():
    proc = _bench("--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def traced():
    proc = _bench("--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    files = {name: json.loads((OUT / f"{name}.smoke.trace.json").read_text())
             for name in WORKLOADS}
    return proc, files


def _traced_repeats(files):
    for name, payload in files.items():
        for repeat in payload["repeats"]:
            if repeat["traced"]:
                yield name, repeat


def _layer_calls(trace: dict) -> dict:
    calls: dict = {}
    for origin in ("main", "thread", "worker"):
        for span in trace["spans"][origin].values():
            calls[span["layer"]] = calls.get(span["layer"], 0) + span["calls"]
    return calls


def test_contract_names_the_suite(contract):
    assert [w["name"] for w in contract["workloads"]] == WORKLOADS
    assert contract["paths"] == ["bench"]
    for workload in suite.WORKLOADS.values():
        assert Path(workload.path).is_file()


@pytest.mark.parametrize("kind, fixture", [("end_to_end", "end_to_end"),
                                           ("per_layer", "traced")])
def test_every_metric_is_printed_with_its_unit(kind, fixture, contract,
                                               request):
    value = request.getfixturevalue(fixture)
    proc = value[0] if isinstance(value, tuple) else value
    result = _result(proc)
    text = proc.stdout
    for name in WORKLOADS:
        for metric in contract[kind]:
            printed = result["metrics"][f"{name}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
    for metric in contract[kind]:
        lines = [line for line in text.splitlines()
                 if line.split()[:1] == [metric["name"]]]
        assert len(lines) == len(WORKLOADS), metric["name"]
        assert all(f" {metric['unit']} " in line for line in lines)


def test_golden_digests_match_at_the_default_seed(end_to_end):
    result = _result(end_to_end)
    points = sum(suite.WORKLOADS[name].n_points() for name in WORKLOADS)
    assert result == {**result, "correct": True, "failed": 0,
                      "attempted": points}


def test_a_perturbed_result_counts_as_failed(monkeypatch):
    from repro.scenario.runner import run_scenarios

    for name in run.SCRUBBED_ENV:
        monkeypatch.delenv(name, raising=False)
    workload = suite.WORKLOADS["replay-medium"]
    scenarios, _ = suite.load_scenarios(workload, None, smoke=True)
    result = run_scenarios(scenarios, workers=1)[0]
    digest = checks.result_digest(result)
    assert [digest] == suite.load_golden()["smoke"]["replay-medium"]
    assert checks.invariant_errors(result, result.counters.sessions) == []

    hour = min(result.server_meter.buckets())
    result.server_meter.add_bits(hour * 3600.0, 1.0)
    perturbed = checks.result_digest(result)
    assert perturbed != digest

    def outcome(point_digest, errors=()):
        return {"ok": True, "at_default_seed": True,
                "points": [{"digest": point_digest, "errors": list(errors)}]}

    golden = suite.load_golden()
    assert run.judge("replay-medium", [outcome(digest)], golden, True) == (1, 0)
    assert run.judge("replay-medium", [outcome(digest), outcome(perturbed)],
                     golden, True) == (2, 1)
    crashed = {"ok": False, "error": "boom"}
    assert run.judge("replay-medium", [crashed], golden, True) == (1, 1)

    result.counters.segment_requests += 1
    errors = checks.invariant_errors(result, result.counters.sessions + 1)
    assert len(errors) == 2
    assert run.judge("replay-medium", [outcome(digest, errors)],
                     golden, True) == (1, 1)


def test_wrapper_calls_equal_the_program_counters(traced):
    for name, repeat in _traced_repeats(traced[1]):
        calls = _layer_calls(repeat["trace"])
        totals = repeat["totals"]
        assert calls["cache.request"] == totals["segment_requests"], name
        assert calls["cache.session_start"] == totals["sessions"], name


def test_worker_spans_arrive_from_the_sharded_pool(traced):
    shards = suite.WORKLOADS["metro-sharded"].payload()["shards"]
    assert suite.WORKLOADS["metro-sharded"].workers == 2
    for _, repeat in _traced_repeats({"metro": traced[1]["metro-sharded"]}):
        spans = repeat["trace"]["spans"]
        tasks = [s for s in spans["worker"].values()
                 if s["layer"] == "core.shard.task"]
        assert sum(s["calls"] for s in tasks) == shards
        assert not [s for s in spans["main"].values()
                    if s["layer"] == "core.shard.task"]


def test_self_seconds_plus_unattributed_is_the_traced_wall(traced):
    for name, repeat in _traced_repeats(traced[1]):
        trace = repeat["trace"]
        total = sum(s["self_s"] for s in trace["replay_spans"].values())
        assert total + trace["unattributed_s"] == pytest.approx(
            trace["wall_s"], rel=1e-9), name


def test_traced_digests_equal_untraced_and_golden(traced):
    golden = suite.load_golden()["smoke"]
    for name, payload in traced[1].items():
        digests = [[p["digest"] for p in r["points"]]
                   for r in payload["repeats"]]
        assert len(digests) == 2
        assert digests == [golden[name]] * 2, name


def test_agree_reports_both_medians_per_metric(contract):
    proc = _bench("--smoke", "--agree", "--workload", "replay-medium",
                  "--repeats", "1")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    for metric in contract["end_to_end"]:
        for side in "ab":
            assert f"replay-medium/{metric['name']}/{side}" in result["metrics"]
    assert "agreement:" in proc.stdout


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "replay-medium", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
