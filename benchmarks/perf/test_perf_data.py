"""Data preparation: wall time and memory of ``prepare_data``.

``prepare_data`` builds the corpus, the vocabulary and the three loaders,
precomputing every feature channel.  The measured lane runs it in a fresh
Python process per configuration, so the resident-set growth it reports is
the growth one call causes, not the high-water mark of an earlier test.  Per
configuration it records into ``BENCH_engine.json``:

* ``wall_s`` — median of three untraced calls;
* ``maxrss_growth_mb`` — the process's peak resident set after the first
  call minus after the imports.  On Linux this is ``VmHWM`` from
  ``/proc/self/status``: ``ru_maxrss`` also carries the spawning process's
  peak across ``exec``, so under pytest it starts at the test runner's
  size and understates the growth.  Elsewhere it falls back to
  ``ru_maxrss``;
* ``tracemalloc_peak_mb`` — peak traced memory of a fourth call, with the
  earlier bundles freed;

plus the environment: cores, BLAS threads, NumPy version and dtype.  The
configurations are the benchmark's (scale 0.3, float32) and the full-scale
float64 corpus.

The unmarked smoke runs the same probe at a tiny scale in every tier-1
collection, so the lane cannot rot unnoticed.

Run the measured lane with ``pytest benchmarks/perf --run-perf -k
prepare_data -q -s``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from _bench_utils import record_bench

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

_PROBE = r"""
import gc, json, os, platform, resource, statistics, sys, time, tracemalloc
import numpy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import prepare_data
from repro.utils import pin_blas_threads

blas_threads = pin_blas_threads()
config = ExperimentConfig(dataset="chinese", scale=float(sys.argv[1]),
                          dtype=sys.argv[2])

def maxrss_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

walls = []
before = maxrss_mb()
for call in range(3):
    start = time.perf_counter()
    bundle = prepare_data(config)
    walls.append(time.perf_counter() - start)
    if call == 0:
        growth = maxrss_mb() - before
        rows = sum(len(loader.dataset) for loader in (
            bundle.train_loader, bundle.val_loader, bundle.test_loader))
    del bundle
    gc.collect()
tracemalloc.start()
bundle = prepare_data(config)
_, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps({
    "scale": config.scale, "dtype": config.dtype, "rows": rows,
    "wall_s": round(statistics.median(walls), 4),
    "maxrss_growth_mb": round(growth, 1),
    "tracemalloc_peak_mb": round(peak / 2**20, 1),
    "cpu_count": os.cpu_count(), "blas_threads": blas_threads,
    "numpy": numpy.__version__, "python": platform.python_version(),
}))
"""


def probe_prepare_data(scale: float, dtype: str) -> dict:
    """Run the probe in a fresh interpreter; returns its measurement row."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [path for path in [env.get("PYTHONPATH")] if path])
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(scale), dtype], env=env,
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_prepare_data_probe_smoke():
    """Tier-1 guard: the probe runs and reports every key the lane records."""
    row = probe_prepare_data(0.02, "float32")
    assert row["dtype"] == "float32" and row["rows"] > 0
    assert row["wall_s"] > 0 and row["tracemalloc_peak_mb"] > 0
    assert row["maxrss_growth_mb"] >= 0
    assert {"cpu_count", "blas_threads", "numpy", "python"} <= set(row)


@pytest.mark.perf
def test_prepare_data_time_and_memory():
    entries = []
    for scale, dtype in ((0.3, "float32"), (1.0, "float64")):
        row = probe_prepare_data(scale, dtype)
        print(row)
        entries.append({"name": f"data/prepare_data/scale{scale}_{dtype}", **row})
    record_bench("engine", entries)
