"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 -m pytest perfbench/test_smoke.py -q      # from the repository root

Each workload runs for one second untraced and traced; every op must pass
its check and every metric must be printed by name.  A directory holding
only the benchmark (no `src/`) must make the benchmark fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_and_prints_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    text = "\n".join(lines)
    for name in expected:
        assert name in text
    if not trace:
        assert "fail_share = 0.0000 ratio" in text


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
