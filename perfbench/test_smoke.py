"""Smoke test of the benchmark itself, kept out of the package's test suite:

    python -m pytest perfbench/test_smoke.py

Every workload runs at its smallest size for about a second, untraced and
traced. Each run must report exactly the metrics BENCHMARK.json names for
its mode, with their units, and fail no op.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in named}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    if trace:
        assert result["metrics"]["failed_ratio"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
