"""Smoke test of tools/cli_times.py: one golden case, one fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_times.py"


def test_times_one_case_once():
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "--case", "phase-relu"],
                          capture_output=True, text=True, check=True)
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    assert (doc["case"], doc["runs"]) == ("phase-relu", 1)
    assert 0 < doc["min_s"] == doc["median_s"] == doc["max_s"]
    # the child's own peak: at least an interpreter with numpy, far below a GB
    assert 10 < doc["max_rss_mb"] < 1000
