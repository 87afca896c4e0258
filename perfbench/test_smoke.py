"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each run must print every metric BENCHMARK.json names, with its unit, pass
every output check, and end with the result JSON. A copy of the benchmark
without the package must fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in expected:
        assert f"metric {m['name']} " in proc.stdout
    assert "metric failed_share 0.0 share" in proc.stdout
    manifest = json.loads(lines[0].removeprefix("manifest "))
    for key in ("nproc", "python", "numpy", "git_sha", "seed", "workers"):
        assert key in manifest
    metrics = result["metrics"]
    if trace and workload == "threshold-winonly":
        for name in ("classify.calls", "rewards.calls", "metrics.update_calls"):
            assert metrics[name]["value"] == 0
    if trace and workload == "carryover-m4":
        assert metrics["engine.reserve_share"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
