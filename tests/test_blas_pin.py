"""The test session runs on one BLAS thread (pinned by the root conftest)."""

import os
import subprocess
import sys

from _bench_utils import openblas_thread_controls


def test_session_runs_one_blas_thread():
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[variable] == "1"
    _, getter = openblas_thread_controls()
    if getter is not None:
        assert getter() == 1


def test_spawned_processes_inherit_the_pin():
    probe = ("import numpy, sys; sys.path.insert(0, sys.argv[1]);"
             "from _bench_utils import openblas_thread_controls;"
             "_, get = openblas_thread_controls();"
             "print(get() if get else 1)")
    benchmarks = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks")
    out = subprocess.run([sys.executable, "-c", probe, benchmarks],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
