"""Reduced-size smoke test of the benchmark.

    python3 -m pytest e2ebench/smoke.py -q

Runs every workload of ``BENCHMARK.json``, untraced and traced, on shrunken
inputs (``--size smoke``) and asserts that the result line has the agreed
shape, that each named metric is emitted with its unit, and that every
correctness check of the workload ran and passed.  It also checks that the
benchmark refuses to run without the program under test.  The file name
keeps it out of the default test collection; it takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

CHECKS = {
    "distill": {"fits_bit_identical"},
    "stream": {"all_events_served", "served_is_last_export", "replays_identical"},
}
UNTRACED_CHECKS = {"host_speed_probe_alone"}
TRACED_CHECKS = {"stage_sums_reconcile"}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, *SPEC["command"][1:]),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    process = _run(ROOT, workload, trace)
    assert process.returncode == 0, process.stderr[-3000:]
    *_, details_line, result_line = process.stdout.strip().splitlines()
    result, details = json.loads(result_line), json.loads(details_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(emitted["value"]), entry["name"]
        if not trace:
            assert emitted["value"] > 0, entry["name"]

    assert set(details["checks"]) == CHECKS[workload] | (
        TRACED_CHECKS if trace else UNTRACED_CHECKS)
    assert all(details["checks"].values()), details["checks"]
    assert details["environment"]["blas_threads"] == 1


def test_refuses_without_the_program():
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        process = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert process.returncode != 0
        assert '"metrics"' not in process.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
