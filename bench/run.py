"""The repository benchmark: scenario workloads end to end, layers from outside.

Usage, from the root of a checkout::

    python3 bench/run.py                  # every workload, end to end
    python3 bench/run.py --trace 1        # every workload, traced pass
    python3 bench/run.py --workload churn-sweep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --agree          # two interleaved sets of runs
    python3 bench/run.py --write-golden   # re-pin bench/golden.json

Every repeat of every workload runs in a fresh interpreter
(``bench/child.py``) with ``REPRO_ENGINE``, ``REPRO_TRACE_BACKEND``,
``REPRO_WORKERS`` and ``REPRO_TRACE_SHARE`` unset, against the source
tree of this checkout (``src/``).  This process only spawns, checks and
reports.  The first repeat of each workload is a discarded warm-up (it
fills the OS page cache and writes bytecode); then come ``--repeats``
timed repeats, or, with ``--seconds``, as many as fit in that many
seconds (at least three).

End-to-end metrics (``--trace 0``) are medians over the timed repeats:

* ``events_per_s`` -- simulation events processed / wall time of the
  ``run_scenarios(...)`` call;
* ``setup_s`` -- spawn to the replay call: interpreter, imports,
  scenario load and materialized trace generation;
* ``peak_rss_mb`` -- the repeat's peak RSS, pool workers included.

``--trace 1`` alternates untraced and traced repeats; the traced ones
wrap the program's layers from outside (``bench/layers.py``) and give
the per-layer metrics (medians), written in full to
``bench/out/<workload>.trace.json``.

Every scenario point of every repeat is an operation.  It fails if its
repeat raises, if it breaks a structural invariant, if its resolved
engine or trace backend is not the declared one, or if its digest
differs from ``bench/golden.json`` (at the default seed) or from the
other repeats of the same run (at any seed).  The last line of the
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A checkout without ``src/repro`` exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import suite

CHILD = os.path.join(suite.BENCH_DIR, "child.py")
OUT_DIR = os.path.join(suite.BENCH_DIR, "out")
SRC = os.path.join(suite.ROOT, "src")

#: Settings that would silently change which code path a child runs.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_TRACE_BACKEND", "REPRO_WORKERS",
                "REPRO_TRACE_SHARE")
#: Wall-clock budget for measuring one workload; the run must end
#: inside 180 s.
WORKLOAD_DEADLINE_S = 170.0
#: Fewest timed repeats a ``--seconds`` run reports a median over.
MIN_TIMED = 3


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = SRC
    # Shared trace files (repro.trace.share) go to the temp dir; keep
    # them inside the checkout.
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def spawn(workload: str, seed: Optional[int], smoke: bool, traced: bool,
          deadline: float) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter and return its outcome."""
    spans_dir = None
    if traced:
        spans_dir = os.path.join(OUT_DIR, "spans", workload)
        shutil.rmtree(spans_dir, ignore_errors=True)
    request = {"workload": workload, "seed": seed, "smoke": smoke,
               "spans_dir": spans_dir}
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop its pool workers too.
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(request)], cwd=suite.ROOT,
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        outcome = {"ok": False, "error": "timed out"}
    else:
        try:
            outcome = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            outcome = {"ok": False,
                       "error": f"exit {proc.returncode}: {err[-2000:]}"}
    finally:
        if spans_dir is not None:
            shutil.rmtree(spans_dir, ignore_errors=True)
    outcome["traced"] = traced
    outcome["elapsed_s"] = time.monotonic() - spawned
    if outcome["ok"]:
        outcome["setup_s"] = outcome["replay_started"] - spawned
        outcome["events_per_s"] = outcome["events"] / outcome["replay_s"]
        outcome["peak_rss_mb"] = outcome["rss_mb"]
    else:
        print(f"bench: {workload} repeat failed: {outcome['error']}",
              file=sys.stderr)
    return outcome


def measure(workload: str, seed: Optional[int], smoke: bool, trace: bool,
            repeats: Optional[int], seconds: Optional[float]
            ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Warm-up plus timed repeats (pairs of untraced + traced under ``trace``).

    Returns ``(all outcomes, timed outcomes)``.
    """
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    outcomes = []
    # Round durations predict whether one more round fits the box.
    rounds: List[float] = []
    if not smoke:
        outcomes.append(spawn(workload, seed, smoke, False, deadline))
        rounds.append(outcomes[0]["elapsed_s"] * (2 if trace else 1))
    if repeats is None:
        repeats = 1 if (smoke or trace) else 5
    minimum = MIN_TIMED if (seconds is not None and not trace) else 1
    timed: List[Dict[str, Any]] = []
    box_end = time.monotonic() + (seconds or 0.0)
    while time.monotonic() < deadline:
        done = len(timed) // (2 if trace else 1)
        if done >= minimum:
            next_end = time.monotonic() + statistics.median(rounds)
            if seconds is None and done >= repeats:
                break
            if seconds is not None and next_end > box_end:
                break
            if next_end > deadline:
                break
        started = time.monotonic()
        round_ = [spawn(workload, seed, smoke, False, deadline)]
        if trace:
            round_.append(spawn(workload, seed, smoke, True, deadline))
        rounds.append(time.monotonic() - started)
        outcomes.extend(round_)
        timed.extend(round_)
    return outcomes, timed


# ----------------------------------------------------------------------
# Checking and summarizing
# ----------------------------------------------------------------------


def judge(name: str, outcomes: List[Dict[str, Any]], golden: Dict[str, Any],
          smoke: bool) -> Tuple[int, int]:
    """``(attempted, failed)`` over every point of every repeat."""
    n_points = suite.WORKLOADS[name].n_points()
    pinned = golden.get("smoke" if smoke else "full", {}).get(name)
    reference = None
    for outcome in outcomes:
        if outcome["ok"]:
            reference = [p["digest"] for p in outcome["points"]]
            if outcome["at_default_seed"] and pinned is not None:
                reference = pinned
            break
    attempted = failed = 0
    for outcome in outcomes:
        attempted += n_points
        if not outcome["ok"]:
            failed += n_points
            continue
        points = outcome["points"]
        for index in range(n_points):
            problems = []
            if index >= len(points):
                problems.append("missing result")
            else:
                problems.extend(points[index]["errors"])
                if reference is None or index >= len(reference) \
                        or points[index]["digest"] != reference[index]:
                    problems.append("digest differs from the reference")
            if problems:
                failed += 1
                print(f"bench: {name} point {index}: {'; '.join(problems)}",
                      file=sys.stderr)
    return attempted, failed


def _stats(values: List[float]) -> Tuple[float, float, float]:
    """Median and the first/third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def e2e_samples(timed: List[Dict[str, Any]], metrics: List[Dict[str, Any]]
                ) -> Dict[str, List[float]]:
    return {m["name"]: [o[m["name"]] for o in timed if o["ok"]]
            for m in metrics}


def layer_samples(timed: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-layer metric values of each traced repeat, overhead included."""
    untraced = [o["replay_s"] for o in timed if o["ok"] and not o["traced"]]
    samples: Dict[str, List[float]] = {}
    for outcome in timed:
        if not (outcome["ok"] and outcome["traced"]):
            continue
        values = dict(outcome["trace"]["metrics"])
        values["bench.trace_overhead"] = (
            outcome["trace"]["wall_s"] / statistics.median(untraced) - 1.0
            if untraced else 0.0)
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    return samples


def _format(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, seed: Optional[int], outcomes: List[Dict[str, Any]],
           timed: List[Dict[str, Any]], samples: Dict[str, List[float]],
           metrics: List[Dict[str, Any]], attempted: int, failed: int,
           trace: bool) -> Dict[str, Dict[str, Any]]:
    """Print one workload's block; return its ``{metric: {value, unit}}``."""
    workload = suite.WORKLOADS[name]
    ok = [o for o in outcomes if o["ok"]]
    engines = sorted({p["engine"] for o in ok for p in o["points"]})
    backends = sorted({o["backend"] for o in ok})
    warmups = len(outcomes) - len(timed)
    kind = "traced pairs" if trace else "timed repeats"
    count = len(timed) // 2 if trace else len(timed)
    print(f"workload {name}: seed {'default' if seed is None else seed}, "
          f"engine {'/'.join(engines) or '?'}, "
          f"trace backend {'/'.join(backends) or '?'}, "
          f"workers {workload.workers}; {count} {kind}, {warmups} warm-up")
    values: Dict[str, Dict[str, Any]] = {}
    width = max(len(m["name"]) for m in metrics)
    for metric in metrics:
        data = samples.get(metric["name"], [])
        if not data:
            print(f"  {metric['name']:<{width}}  (no sample) {metric['unit']}")
            continue
        median, q1, q3 = _stats(data)
        values[metric["name"]] = {"value": median, "unit": metric["unit"]}
        print(f"  {metric['name']:<{width}}  {_format(median):>12} "
              f"{metric['unit']:<9} q1 {_format(q1)}  q3 {_format(q3)}  "
              f"n={len(data)}")
    error_rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<{width}}  {_format(error_rate):>12} "
          f"{'fraction':<9} {failed} failed of {attempted} attempted")
    return values


def write_trace_file(name: str, seed: Optional[int], smoke: bool,
                     timed: List[Dict[str, Any]],
                     values: Dict[str, Dict[str, Any]]) -> str:
    """Full per-layer detail of one traced run under ``bench/out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}{'.smoke' if smoke else ''}"
                                 f".trace.json")
    payload = {
        "workload": name,
        "seed": seed,
        "metrics": values,
        "untraced_replay_s": [o["replay_s"] for o in timed
                              if o["ok"] and not o["traced"]],
        "repeats": [{k: o.get(k) for k in
                     ("traced", "ok", "replay_s", "events", "points",
                      "totals", "trace", "error")}
                    for o in timed],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def host_line() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"host: nproc {len(os.sched_getaffinity(0))}, cpu {model}, "
            f"python {platform.python_version()}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------


def run_benchmark(args, contract) -> int:
    golden = suite.load_golden()
    metrics = contract["per_layer" if args.trace else "end_to_end"]
    names = args.workload or list(suite.WORKLOADS)
    print(host_line())
    attempted = failed = 0
    complete = True
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        outcomes, timed = measure(name, args.seed, args.smoke, args.trace,
                                  args.repeats, args.seconds)
        tried, broke = judge(name, outcomes, golden, args.smoke)
        attempted += tried
        failed += broke
        if args.trace:
            samples = layer_samples(timed)
        else:
            samples = e2e_samples(timed, metrics)
        values = report(name, args.seed, outcomes, timed, samples, metrics,
                        tried, broke, args.trace)
        if args.trace:
            path = write_trace_file(name, args.seed, args.smoke, timed, values)
            print(f"  spans: {os.path.relpath(path, suite.ROOT)}")
        complete &= len(values) == len(metrics)
        for metric, value in values.items():
            results[metric if len(names) == 1 else f"{name}/{metric}"] = value
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if correct else 1


def run_agree(args, contract) -> int:
    """Two interleaved sets of repeats of the same code; compare medians."""
    golden = suite.load_golden()
    metrics = contract["end_to_end"]
    names = args.workload or list(suite.WORKLOADS)
    repeats = args.repeats or (1 if args.smoke else 5)
    print(host_line())
    attempted = failed = 0
    agree_all = True
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        deadline = time.monotonic() + 2 * WORKLOAD_DEADLINE_S
        sets: Dict[str, List[Dict[str, Any]]] = {"a": [], "b": []}
        outcomes = [] if args.smoke else [
            spawn(name, args.seed, args.smoke, False, deadline)]
        for index in range(repeats):
            for label in ("ab" if index % 2 == 0 else "ba"):
                outcome = spawn(name, args.seed, args.smoke, False, deadline)
                sets[label].append(outcome)
                outcomes.append(outcome)
        print(f"workload {name}: {repeats} repeats per set, interleaved")
        for label in "ab":
            tried, broke = judge(name, sets[label], golden, args.smoke)
            attempted += tried
            failed += broke
            print(f"  set {label}: error_rate "
                  f"{_format(broke / tried if tried else 0.0)} fraction "
                  f"({broke} failed of {tried} attempted)")
        for metric in metrics:
            key = metric["name"]
            a = [o[key] for o in sets["a"] if o["ok"]]
            b = [o[key] for o in sets["b"] if o["ok"]]
            if not a or not b:
                agree_all = False
                print(f"  {key}: no samples")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            shift = abs(mb - ma) / ma
            agree = shift <= metric["bound"]
            agree_all &= agree
            results[f"{name}/{key}/a"] = {"value": ma, "unit": metric["unit"]}
            results[f"{name}/{key}/b"] = {"value": mb, "unit": metric["unit"]}
            print(f"  {key:<12} a {_format(ma):>12}  b {_format(mb):>12} "
                  f"{metric['unit']:<9} shift {shift:.2%} "
                  f"(bound {metric['bound']:.0%}): "
                  f"{'agree' if agree else 'DISAGREE'}")
    correct = failed == 0
    print(f"agreement: {'all within bounds' if agree_all else 'NOT within bounds'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if (correct and agree_all) else 1


def write_golden() -> int:
    """Re-pin every point's digest at the default seed (full and smoke)."""
    golden: Dict[str, Dict[str, List[str]]] = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        for name in suite.WORKLOADS:
            deadline = time.monotonic() + WORKLOAD_DEADLINE_S
            outcome = spawn(name, None, smoke, False, deadline)
            if not outcome["ok"]:
                return 1
            errors = [e for p in outcome["points"] for e in p["errors"]]
            if errors:
                print(f"bench: {name} ({mode}): {errors}", file=sys.stderr)
                return 1
            golden.setdefault(mode, {})[name] = [
                p["digest"] for p in outcome["points"]]
            print(f"{mode} {name}: {len(outcome['points'])} digests")
    with open(suite.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Scenario workloads end to end; layers from outside.")
    parser.add_argument("--workload", action="append",
                        choices=sorted(suite.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed override (default: each file's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box for the timed repeats of a workload")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats (default 5; 1 traced pair)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes and no warm-up (self-tests)")
    parser.add_argument("--agree", action="store_true",
                        help="two interleaved sets of --repeats runs; compare")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin bench/golden.json at the default seed")
    args = parser.parse_args(argv)
    if args.agree and args.trace:
        parser.error("--agree compares end-to-end metrics; drop --trace")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program source at {SRC}; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    contract = suite.load_contract()
    if args.agree:
        return run_agree(args, contract)
    return run_benchmark(args, contract)


if __name__ == "__main__":
    sys.exit(main())
