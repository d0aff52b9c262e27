"""Results are computed on one BLAS thread: the test session and ``repro.cli``."""

import os
import subprocess
import sys
from pathlib import Path

from repro.utils import openblas_thread_controls

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _unpinned_env() -> dict:
    """This environment with two BLAS/OpenMP threads asked for, as on a host
    whose shell exports them."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.update({variable: "2" for variable in BLAS_VARIABLES})
    return env


def test_session_runs_one_blas_thread():
    for variable in BLAS_VARIABLES:
        assert os.environ[variable] == "1"
    _, getter = openblas_thread_controls()
    if getter is not None:
        assert getter() == 1


def test_spawned_processes_inherit_the_pin():
    probe = ("import numpy;"
             "from repro.utils import openblas_thread_controls;"
             "_, get = openblas_thread_controls();"
             "print(get() if get else 1)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "1"


def test_cli_pins_its_own_process():
    """``main`` pins the OpenBLAS it runs on, whatever the shell asked for."""
    probe = ("import os;"
             "from repro.cli import main;"
             "from repro.utils import openblas_thread_controls;"
             "code = main(['sweep', '--list']);"
             "_, get = openblas_thread_controls();"
             "print(code, get() if get else 1,"
             " *(os.environ[v] for v in ('OPENBLAS_NUM_THREADS',"
             " 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=_unpinned_env())
    assert out.stdout.strip().splitlines()[-1] == "0 1 1 1 1"


def test_cli_sweep_worker_regenerates_committed_table(tmp_path):
    """A pool worker spawned by the CLI under an ambient two-thread BLAS
    still writes the committed fig2 table byte for byte."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", "--tables", "fig2",
         "--jobs", "1", "--results-dir", str(tmp_path)],
        capture_output=True, text=True, check=True, env=_unpinned_env(),
        cwd=tmp_path)
    name = "fig2_tsne_mixing.txt"
    committed = (ROOT / "benchmarks" / "results" / name).read_bytes()
    assert (tmp_path / name).read_bytes() == committed
