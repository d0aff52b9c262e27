"""``record_bench`` must be safe under concurrent writers.

Parallel sweep cells (and the perf lanes racing an orchestrator run) merge
into the same ``BENCH_<suite>.json``.  Before the advisory lock, two writers
could read the same baseline, merge disjoint entries, and the second atomic
replace silently dropped the first writer's rows.  The regression test here
hammers one record from several processes and asserts no entry is lost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

WRITER_SCRIPT = """\
import json, os, sys
sys.path.insert(0, {bench_dir!r})
import _bench_utils
_bench_utils.REPO_ROOT = {record_dir!r}
tag = sys.argv[1]
for i in range(20):
    _bench_utils.record_bench("locktest",
                              [{{"name": f"{{tag}}_{{i}}", "value": i}}])
"""


def _load_utils():
    sys.path.insert(0, BENCH_DIR)
    try:
        import _bench_utils
    finally:
        sys.path.remove(BENCH_DIR)
    return _bench_utils


def test_record_bench_merges_and_replaces_by_name(tmp_path, monkeypatch):
    utils = _load_utils()
    monkeypatch.setattr(utils, "REPO_ROOT", str(tmp_path))
    path = utils.record_bench("unit", [{"name": "a", "value": 1},
                                       {"name": "b", "value": 2}])
    utils.record_bench("unit", [{"name": "a", "value": 10}])
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = {entry["name"]: entry for entry in payload["entries"]}
    assert entries["a"]["value"] == 10  # same-name entry replaced, not duplicated
    assert entries["b"]["value"] == 2   # unrelated entry preserved
    assert payload["suite"] == "unit"
    # merge=False starts the record over
    utils.record_bench("unit", [{"name": "c", "value": 3}], merge=False)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert [entry["name"] for entry in payload["entries"]] == ["c"]


def test_record_bench_environment_change_starts_fresh_record(tmp_path, monkeypatch):
    utils = _load_utils()
    monkeypatch.setattr(utils, "REPO_ROOT", str(tmp_path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    path = utils.record_bench("unit", [{"name": "a", "value": 1}])
    with open(path, "r", encoding="utf-8") as handle:
        environment = json.load(handle)["environment"]
    for key in ("python", "machine", "cpu_count", "numpy", "OMP_NUM_THREADS"):
        assert key in environment
    assert environment["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["cpu_count"] == os.cpu_count()
    utils.record_bench("unit", [{"name": "b", "value": 2}])  # same environment: merge
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    utils.record_bench("unit", [{"name": "c", "value": 3}])  # BLAS threads moved
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert [entry["name"] for entry in payload["entries"]] == ["c"]
    assert payload["environment"]["OPENBLAS_NUM_THREADS"] == "2"


def test_record_bench_concurrent_writers_lose_no_entries(tmp_path):
    utils = _load_utils()
    if getattr(utils, "fcntl", None) is None:
        pytest.skip("advisory locking unavailable on this platform")
    script = tmp_path / "writer.py"
    script.write_text(WRITER_SCRIPT.format(bench_dir=BENCH_DIR,
                                           record_dir=str(tmp_path)),
                      encoding="utf-8")
    tags = ("alpha", "beta", "gamma")
    writers = [subprocess.Popen([sys.executable, str(script), tag],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
               for tag in tags]
    for writer in writers:
        out, _ = writer.communicate(timeout=120)
        assert writer.returncode == 0, f"writer failed:\n{out}"

    with open(tmp_path / "BENCH_locktest.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    names = {entry["name"] for entry in payload["entries"]}
    expected = {f"{tag}_{i}" for tag in tags for i in range(20)}
    missing = expected - names
    assert not missing, (
        f"concurrent merges lost {len(missing)} entries: {sorted(missing)[:5]}")
