"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs through ``run.py`` exactly as the benchmark is run,
with ``--size tiny`` (a few rounds, a 5,000-client fleet, a 2-cell
sweep), untraced and traced.  The test asserts that the result line
carries every metric ``BENCHMARK.json`` names, with the same unit, and
that ``plan.json`` documents every workload and per-layer metric.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    code, result, stderr = _run(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"] for m in expected} == set(result["metrics"])
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_plan_covers_benchmark():
    assert set(PLAN["workloads"]) == set(WORKLOADS)
    assert set(PLAN["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(PLAN["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric, entry in PLAN["per_layer"].items():
        for e2e, workload in entry["moves"] + entry["steady"]:
            assert e2e in names and workload in WORKLOADS, metric


def test_refuses_to_run_without_the_program(tmp_path):
    """A checkout holding only the benchmark fails without a result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
