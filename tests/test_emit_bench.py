"""The emit_bench RSS probes measure the probe, not the process spawning it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = str(Path(__file__).resolve().parent.parent / "scripts")

#: Holds ~200 MB resident, then runs an empty probe and reports both
#: its own high-water mark and the probe's.
HOLDER = """\
import json, sys
sys.path.insert(0, {scripts!r})
import emit_bench
held = b"\\x01" * (200 << 20)
probe = emit_bench.rss_probe("def run():\\n    return {{}}\\n")
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status
                  if line.startswith("VmHWM:"))
print(json.dumps(dict(probe, holder_mb=hwm_kb / 1024.0)))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux /proc")
def test_probe_reports_its_own_peak_not_the_spawners():
    proc = subprocess.run(
        [sys.executable, "-c", HOLDER.format(scripts=SCRIPTS)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["holder_mb"] > 200
    assert report["peak_rss_mb"] < 100
