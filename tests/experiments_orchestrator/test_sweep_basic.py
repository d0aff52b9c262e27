"""Core orchestrator semantics: determinism, retries, timeouts, supervision.

The serial in-process path (``jobs=0``) is the ground truth; the pool must
reproduce its results exactly.  Fault behaviour is driven through the seeded
``orchestrate.*`` sites so every failure here replays identically.
"""

from __future__ import annotations

import json

import pytest

import _sweep_cells
from repro.experiments.orchestrator import (
    CellSpec,
    OrchestratorConfig,
    SweepFailed,
    register_cell_kind,
    resolve_cell_kind,
    run_sweep,
    sweep_fingerprint,
)
from repro.reliability import FaultPlan
from repro.reliability.faults import inject

CELLS = "_sweep_cells"


def _specs(n=5, kind=f"{CELLS}:square_cell", **extra):
    return [CellSpec(cell_id=f"c{i}", kind=kind, params={"x": i, **extra})
            for i in range(n)]


def _dumps(result):
    return json.dumps(result.results, sort_keys=True)


def test_parallel_matches_serial_and_keeps_spec_order(tmp_path):
    specs = _specs()
    serial = run_sweep(specs, config=OrchestratorConfig(jobs=0),
                       journal_dir=tmp_path / "js")
    parallel = run_sweep(specs, config=OrchestratorConfig(
        jobs=2, worker_modules=(CELLS,)), journal_dir=tmp_path / "jp")
    assert serial.ok and parallel.ok
    assert _dumps(serial) == _dumps(parallel)
    # outcomes come back in spec order regardless of completion order
    assert [o.spec.cell_id for o in parallel.outcomes] == [s.cell_id for s in specs]
    # resuming a finished journal reuses every cell without re-running
    again = run_sweep(specs, config=OrchestratorConfig(
        jobs=2, worker_modules=(CELLS,)), journal_dir=tmp_path / "jp",
        resume=True)
    assert all(o.status == "cached" for o in again.outcomes)
    assert _dumps(again) == _dumps(serial)


def test_duplicate_cell_ids_refused():
    specs = [CellSpec("same", f"{CELLS}:square_cell", {"x": 1}),
             CellSpec("same", f"{CELLS}:square_cell", {"x": 2})]
    with pytest.raises(ValueError, match="duplicate cell_id 'same'"):
        run_sweep(specs, config=OrchestratorConfig(jobs=0))


def test_unknown_kind_is_a_readable_cell_failure():
    with pytest.raises(ValueError, match="unknown cell kind"):
        resolve_cell_kind("no_such_kind")
    with pytest.raises(ValueError, match="no attribute"):
        resolve_cell_kind(f"{CELLS}:not_a_function")
    result = run_sweep([CellSpec("c0", "no_such_kind", {})],
                       config=OrchestratorConfig(jobs=0))
    assert not result.ok
    assert "unknown cell kind" in result.failures[0].error
    with pytest.raises(SweepFailed, match="c0"):
        result.raise_on_failure()


def test_registered_kind_and_fingerprints():
    register_cell_kind("orchestrator-test-double", lambda spec: {"doubled": spec.params["x"] * 2})
    try:
        result = run_sweep([CellSpec("d", "orchestrator-test-double", {"x": 21})],
                           config=OrchestratorConfig(jobs=0))
        assert result.results["d"] == {"doubled": 42}
    finally:
        from repro.experiments.orchestrator import CELL_KINDS

        del CELL_KINDS["orchestrator-test-double"]
    # fingerprints track params: same grid → same, changed params → different
    assert sweep_fingerprint(_specs()) == sweep_fingerprint(_specs())
    assert sweep_fingerprint(_specs()) != sweep_fingerprint(_specs(extra=1))
    spec = CellSpec("c", f"{CELLS}:square_cell", {"x": 1})
    assert spec.fingerprint() != CellSpec("c", f"{CELLS}:square_cell", {"x": 2}).fingerprint()


def test_injected_flaky_cell_retries_and_replays_exactly(fast_policy):
    specs = _specs()
    baseline = run_sweep(specs, config=OrchestratorConfig(jobs=0))
    plan = FaultPlan(seed=0).fail(
        "orchestrate.cell", error=RuntimeError("transient store glitch"),
        when=lambda d: d.get("cell") == "c2" and d.get("attempt") == 1)

    def run_once():
        with inject(plan):
            return run_sweep(specs, config=OrchestratorConfig(
                jobs=0, retry=fast_policy(attempts=2)))

    first = run_once()
    assert first.ok and first.outcomes[2].attempts == 2
    assert _dumps(first) == _dumps(baseline)
    plan.reset()  # exact replay: same attempts profile, same results
    second = run_once()
    assert [o.attempts for o in second.outcomes] == [o.attempts for o in first.outcomes]
    assert _dumps(second) == _dumps(first)
    assert plan.fired == 1


def test_retry_budget_exhaustion_reports_readably(fast_policy):
    plan = FaultPlan(seed=0).fail(
        "orchestrate.cell", error=RuntimeError("disk on fire"), times=None,
        when=lambda d: d.get("cell") == "c1")
    with inject(plan):
        result = run_sweep(_specs(3), config=OrchestratorConfig(
            jobs=0, retry=fast_policy(attempts=3)))
    assert not result.ok
    [failure] = result.failures
    line = failure.describe()
    assert failure.spec.cell_id == "c1" and failure.attempts == 3
    assert "c1" in line and "3 attempt" in line and "disk on fire" in line
    # the other cells still completed
    assert set(result.results) == {"c0", "c2"}


def test_cell_timeout_serial(fast_policy):
    specs = [CellSpec("slow", f"{CELLS}:sleepy_cell", {"x": 0, "sleep_s": 5.0}),
             CellSpec("fast", f"{CELLS}:square_cell", {"x": 1})]
    result = run_sweep(specs, config=OrchestratorConfig(
        jobs=0, retry=fast_policy(attempts=1), cell_timeout_s=0.3))
    assert not result.ok
    assert "wall-clock budget" in result.failures[0].error
    assert "fast" in result.results


def test_cell_timeout_parallel_kills_worker_and_continues(tmp_path, fast_policy):
    specs = [CellSpec("slow", f"{CELLS}:sleepy_cell", {"x": 0, "sleep_s": 30.0}),
             CellSpec("fast", f"{CELLS}:square_cell", {"x": 1})]
    result = run_sweep(specs, config=OrchestratorConfig(
        jobs=2, worker_modules=(CELLS,), retry=fast_policy(attempts=1),
        cell_timeout_s=1.0))
    assert not result.ok
    assert "wall-clock budget" in result.failures[0].error
    assert result.results["fast"] == {"x": 1, "value": 48}


def test_worker_startup_failure_is_fatal_and_readable():
    with pytest.raises(SweepFailed, match="cannot start"):
        run_sweep(_specs(2), config=OrchestratorConfig(
            jobs=1, worker_modules=("no_such_module_anywhere_xyz",)))


def test_worker_death_respawns_and_redispatches(tmp_path, fast_policy):
    """A chaos plan kills each slot's first cell attempt; no cell is lost."""
    specs = _specs()
    baseline = run_sweep(specs, config=OrchestratorConfig(jobs=0))
    kill = FaultPlan(seed=0).fail("orchestrate.cell", error=SystemExit)
    result = run_sweep(specs, config=OrchestratorConfig(
        jobs=2, worker_modules=(CELLS,), retry=fast_policy(attempts=3),
        fault_plans={0: kill, 1: FaultPlan(seed=1).fail("orchestrate.cell",
                                                        error=SystemExit)}))
    assert result.ok
    assert _dumps(result) == _dumps(baseline)
    # each armed slot's first dispatch was killed and cost one extra attempt
    # (>= 1 because at least one slot dispatches before the grid drains)
    extra = sum(o.attempts for o in result.outcomes) - len(specs)
    assert 1 <= extra <= 2


def test_worker_dying_at_startup_is_respawned():
    """Slot 0's first incarnation dies before it reports ready.

    A worker that never became ready was never given a cell, so the death
    costs a respawn and no attempt: the sweep completes with every cell run
    exactly once and the serial results.
    """
    specs = _specs()
    baseline = run_sweep(specs, config=OrchestratorConfig(jobs=0))
    plan = FaultPlan(seed=0).fail("orchestrate.worker", error=SystemExit)
    result = run_sweep(specs, config=OrchestratorConfig(
        jobs=2, worker_modules=(CELLS,), max_restarts=1,
        fault_plans={0: plan}))
    assert result.ok
    assert _dumps(result) == _dumps(baseline)
    assert [o.attempts for o in result.outcomes] == [1] * len(specs)


def test_startup_death_with_no_restarts_retires_only_that_slot():
    """Slot 0 dies at start-up with no restart budget; slot 1 runs the grid."""
    specs = _specs()
    baseline = run_sweep(specs, config=OrchestratorConfig(jobs=0))
    plan = FaultPlan(seed=0).fail("orchestrate.worker", error=SystemExit)
    result = run_sweep(specs, config=OrchestratorConfig(
        jobs=2, worker_modules=(CELLS,), max_restarts=0,
        fault_plans={0: plan}))
    assert result.ok
    assert _dumps(result) == _dumps(baseline)
    assert [o.attempts for o in result.outcomes] == [1] * len(specs)


def test_restart_budget_exhaustion_fails_readably(fast_policy):
    """Workers that keep dying must end the sweep with a diagnosis, not a hang.

    ``_dying_module`` raises SystemExit at import — a BaseException, so every
    incarnation of the worker dies before reporting ready (fault plans only
    arm the first incarnation; a persistent fault needs a persistent cause).
    """
    with pytest.raises(SweepFailed, match="restart budget"):
        run_sweep(_specs(2), config=OrchestratorConfig(
            jobs=1, worker_modules=("_dying_module",), max_restarts=2,
            retry=fast_policy(attempts=10)))
