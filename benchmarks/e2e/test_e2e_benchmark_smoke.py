"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Runs the real command on every workload at a fraction of its data size
for a fraction of a second, and checks that every metric the contract
names is printed, finite and non-zero where it must be, and that no
request failed.  Servers are subprocesses of the command, which reaps
them; ports are ephemeral and data directories live under ``out/``.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_benchmark(workload, trace):
    done = subprocess.run(
        [
            sys.executable, *CONTRACT["command"][1:],
            "--workload", workload, "--seed", "7", "--seconds", "0.6",
            "--trace", str(trace), "--scale", "0.02",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run_benchmark(workload, trace=0)
    check(result, CONTRACT["end_to_end"])
    for name, got in result["metrics"].items():
        assert got["value"] > 0, name


@pytest.mark.parametrize("workload", ["inproc_oneshot_mixed", "http_read_open"])
def test_per_layer_metrics(workload):
    result = run_benchmark(workload, trace=1)
    check(result, CONTRACT["per_layer"])
    assert result["metrics"]["diag.failed_ratio"]["value"] == 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert (HERE / "out" / f"trace-{workload}.json").exists()
