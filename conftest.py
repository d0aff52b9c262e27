"""Repository-level pytest configuration.

Makes the package importable even when ``pip install -e .`` has not been run
(e.g. a fresh offline checkout): the ``src`` layout directory is appended to
``sys.path`` as a fallback.

Pins BLAS and OpenMP to one thread before NumPy loads and fails the session
if the loaded OpenBLAS reports another count, so a plain test run
regenerates the committed ``benchmarks/results/`` tables byte for byte.

Also registers the ``perf`` marker used by the microbenchmark suite under
``benchmarks/perf/``.  Perf tests measure wall-clock throughput, so they are
excluded from the default (tier-1) run and only collected when pytest is
invoked with ``--run-perf``.
"""

import os
import sys

# One BLAS/OpenMP thread for the whole session and every process it spawns,
# set before NumPy loads: the committed benchmarks/results/ tables and the
# bit-identity tests are reproducible only under one fixed thread count
# (OpenBLAS splits large GEMMs differently with more threads).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import pytest  # noqa: E402

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--run-perf", action="store_true", default=False,
        help="run the performance microbenchmarks in benchmarks/perf/ "
             "(excluded from the default test run)")


def _pin_blas_threads() -> None:
    """Hold the loaded OpenBLAS to one thread; fail the session otherwise.

    The environment pin only takes effect if NumPy loads after it; should a
    plugin have imported NumPy first, the OpenBLAS setter pins it instead.
    """
    from repro.utils import pin_blas_threads

    threads = pin_blas_threads()
    if threads not in (None, 1):
        pytest.exit(f"OpenBLAS runs {threads} threads, not the pinned 1",
                    returncode=pytest.ExitCode.USAGE_ERROR)


def pytest_configure(config):
    _pin_blas_threads()
    config.addinivalue_line(
        "markers",
        "perf: performance microbenchmark (deselected unless --run-perf is given)")
    config.addinivalue_line(
        "markers",
        "watchdog(seconds): override the per-test wall-clock limit enforced by "
        "the reliability/serving suites' watchdog fixture")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-perf"):
        return
    skip_perf = pytest.mark.skip(reason="perf benchmark; pass --run-perf to run")
    for item in items:
        # Only the explicit marker counts: the benchmarks/perf/ directory name
        # also appears in item.keywords, and the unmarked smoke tests that
        # live there must run in the default (tier-1) collection.
        if item.get_closest_marker("perf") is not None:
            item.add_marker(skip_perf)


# --------------------------------------------------------------------------- #
# Shared per-test wall-clock watchdog                                          #
# --------------------------------------------------------------------------- #
#: suites whose tests spawn processes / inject faults and must fail rather
#: than wedge the run when supervision breaks; relative to the repo root
_WATCHDOG_SUITES = (
    os.path.join("tests", "reliability"),
    os.path.join("tests", "serve_server"),
    os.path.join("tests", "experiments_orchestrator"),
)


@pytest.fixture(autouse=True)
def _suite_watchdog(request):
    """Per-test SIGALRM wall-clock limit for the process/chaos suites.

    Applies only to the suites in ``_WATCHDOG_SUITES`` (a no-op elsewhere, so
    plain unit tests pay nothing).  Override the 120s default per test with
    ``@pytest.mark.watchdog(seconds)``.
    """
    path = str(getattr(request.node, "fspath", ""))
    relative = os.path.relpath(path, os.path.dirname(__file__))
    if not relative.startswith(_WATCHDOG_SUITES):
        yield
        return
    from repro.reliability import watchdog

    marker = request.node.get_closest_marker("watchdog")
    seconds = float(marker.args[0]) if marker and marker.args else 120.0
    with watchdog(seconds, message=f"test {request.node.nodeid}"):
        yield
