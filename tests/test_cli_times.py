"""Smoke test of tools/cli_times.py: one golden case, one fresh interpreter,
and the flags of the cases at scale."""

import csv
import importlib.util
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


def test_cases_at_scale_carry_their_format(tmp_path):
    """The JSON case at scale writes --format json on the same 1000 rows as
    ntk-kernel-m1000; the golden cases and the other scale cases write csv."""
    spec = importlib.util.spec_from_file_location("cli_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = tool.case_argv("ntk-kernel-m1000-json", {}, str(tmp_path))
    assert argv[-2:] == ["--format", "json"]
    with open(argv[argv.index("--data") + 1], newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == 1001
    assert tool.case_argv("ntk-kernel-m1000", {}, str(tmp_path))[:-2] == argv[:-2]
    assert tool.case_argv("ntk-kernel-m2000", {}, str(tmp_path))[-2:] == ["--format", "csv"]
    assert tool.case_argv("phase-relu", {}, str(tmp_path))[-2:] == ["--format", "csv"]
