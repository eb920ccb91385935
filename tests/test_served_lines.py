"""Smoke test of tools/served_lines.py: one golden case and one workload at
one seed leave netcore.backward, which nothing served calls, not run."""

import inspect
import subprocess
import sys
from pathlib import Path

from dltl import netcore

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "served_lines.py"


def test_lists_backward_as_not_run():
    argv = ["--case", "phase-relu", "--workload", "theory-sweep", "--seeds", "0"]
    proc = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    source, start = inspect.getsourcelines(netcore.backward)
    assert f"netcore.py:{start + len(source) - 1}: {source[-1].strip()}" in out
    assert any(line.startswith("netcore.py: ") and line.endswith(" lines not run") for line in out)
