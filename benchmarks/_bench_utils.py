"""Helpers shared by the benchmark modules (kept outside conftest so imports
are unambiguous with the repository-root conftest.py)."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback, best-effort only
    fcntl = None

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: Environment overrides that change what the tables hold; with any of them
#: set, a regenerated table is printed but not checked against the file.
TABLE_OVERRIDES = ("REPRO_SCALE", "REPRO_SCALE_EN", "REPRO_EPOCHS", "REPRO_DTYPE",
                   "REPRO_ENCODER_BACKEND")


def emit(name: str, text: str) -> None:
    """Print a regenerated table and check it against ``benchmarks/results``.

    ``python -m repro.cli sweep --results-dir benchmarks/results`` is the
    only writer of those files; at the default settings the text built here
    must be the committed ``<name>.txt`` byte for byte.
    """
    print("\n" + text + "\n")
    if any(os.environ.get(variable) for variable in TABLE_OVERRIDES):
        return
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), encoding="utf-8") as handle:
        committed = handle.read()
    assert text + "\n" == committed, (
        f"the regenerated table differs from benchmarks/results/{name}.txt; "
        "if the change is intended, rewrite the file with `python -m repro.cli "
        "sweep --results-dir benchmarks/results`")


def regenerate(benchmark, table: str, config=None, bundle=None):
    """Build ``table`` once through its sweep cell's runner, emit it and
    return the results it was built from."""
    from repro.experiments.orchestrator import TABLE_CELLS

    cell = TABLE_CELLS[table]
    text, results = run_once(benchmark, lambda: cell.runner(config, bundle))
    emit(cell.output, text)
    return results


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


# --------------------------------------------------------------------------- #
# Perf-trajectory records (BENCH_<suite>.json at the repository root)          #
# --------------------------------------------------------------------------- #
def bench_json_path(suite: str) -> str:
    """Path of the machine-readable record for ``suite`` (e.g. ``engine``)."""
    return os.path.join(REPO_ROOT, f"BENCH_{suite}.json")


@contextlib.contextmanager
def _bench_lock(path: str):
    """Exclusive advisory lock serialising read-merge-write on one record.

    Two parallel sweep cells (or a perf lane racing the orchestrator) updating
    the same ``BENCH_<suite>.json`` must not lose each other's keys: without
    the lock both read the same baseline, merge disjoint entries and the
    second ``os.replace`` silently drops the first writer's rows.  Uses a
    sidecar ``.lock`` file so the lock survives the atomic replace of the
    record itself (locking the record fd would pin the *old* inode).
    """
    if fcntl is None:  # non-POSIX: degrade to the old unlocked behaviour
        yield
        return
    lock_path = f"{path}.lock"
    with open(lock_path, "a+", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def record_bench(suite: str, entries: list[dict], merge: bool = True) -> str:
    """Merge benchmark ``entries`` into ``BENCH_<suite>.json`` and return the path.

    Each entry is a flat dict with at least a ``name`` key; entries replace any
    existing entry of the same name so repeated runs keep one row per
    benchmark.  The file keeps enough environment metadata
    (:func:`bench_environment`) to make numbers comparable across PRs on the
    same machine.  Safe under concurrent writers:
    the whole read-merge-write cycle holds an exclusive advisory lock, so
    parallel processes interleave instead of losing keys.
    """
    path = bench_json_path(suite)
    with _bench_lock(path):
        return _record_bench_locked(suite, path, entries, merge)


def bench_environment() -> dict:
    """Where a record's numbers come from: interpreter, host and BLAS threads.

    A change in any of these values starts a fresh record instead of mixing
    provenance.
    """
    import numpy

    environment = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
    }
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        environment[variable] = os.environ.get(variable)
    return environment


def _record_bench_locked(suite: str, path: str, entries: list[dict],
                         merge: bool) -> str:
    provenance = bench_environment()
    environment = {**provenance, "recorded_unix": int(time.time())}
    payload = {"suite": suite, "entries": []}
    if merge and os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {"suite": suite, "entries": []}
        previous_env = payload.get("environment", {})
        if any(previous_env.get(key) != value for key, value in provenance.items()):
            payload = {"suite": suite, "entries": []}
    existing = {entry.get("name"): entry for entry in payload.get("entries", [])}
    for entry in entries:
        existing[entry["name"]] = entry
    payload["suite"] = suite
    payload["entries"] = [existing[name] for name in sorted(existing, key=str)]
    payload["environment"] = environment
    # Atomic replace so an interrupted run never leaves a half-written record
    # (kept dependency-free: the benchmark helpers must import without repro).
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
    return path


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with the loaded OpenBLAS limited to one thread.

    A GEMM large enough for OpenBLAS to split across threads can stall on a
    shared host: on a 2-core VM a fused scan ran at 40 ms a call instead of
    3 ms for about a second after its first threaded GEMM, while the smaller
    composed GEMMs stayed single-threaded and unaffected.  Timing comparisons
    of kernels run here so both sides see the same one-thread BLAS.  The
    previous thread count is restored on exit.  Without a recognisable
    OpenBLAS this is a no-op.
    """
    from repro.utils import openblas_thread_controls

    setter, getter = openblas_thread_controls()
    if setter is None:
        yield
        return
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


def time_call(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
