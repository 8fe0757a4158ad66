"""The bench trend gate fails on end-to-end regressions only."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trend.py"

HOST = {"quick": True, "cpu_count": 2, "cpu_model": "test-cpu",
        "python": "3.11", "generated_unix": 0}

BASELINE = {"end_to_end_s": 1.0, "end_to_end_columnar_s": 0.5,
            "cache_lfu_s": 0.1}


def _gate(tmp_path, **slower) -> subprocess.CompletedProcess:
    """Run the gate on a report whose metrics are ``BASELINE`` x ``slower``."""
    now = {key: value * slower.get(key, 1.0)
           for key, value in BASELINE.items()}
    report = dict(HOST, end_to_end={"bucket_s": now["end_to_end_s"],
                                    "columnar_s": now["end_to_end_columnar_s"]},
                  cache={"lfu_decisions_s": now["cache_lfu_s"]})
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "history.jsonl").write_text(
        json.dumps(dict(HOST, **BASELINE)) + "\n")
    return subprocess.run(
        [sys.executable, str(SCRIPT),
         "--report", str(tmp_path / "report.json"),
         "--history", str(tmp_path / "history.jsonl"),
         "--max-regression", "0.25"],
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("key", ["end_to_end_s", "end_to_end_columnar_s"])
def test_end_to_end_regression_fails(tmp_path, key):
    proc = _gate(tmp_path, **{key: 1.3})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert key in proc.stderr


def test_ungated_regression_passes(tmp_path):
    proc = _gate(tmp_path, cache_lfu_s=1.3)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "slower, not gated" in proc.stdout


def test_steady_run_passes(tmp_path):
    assert _gate(tmp_path).returncode == 0
