"""Journal robustness: corruption, wrong sweeps and mid-write crashes.

The journal's whole job is to be trustworthy after a disaster — every test
here damages it some way and asserts the failure mode is a readable
:class:`JournalError` naming the damaged file (never a silent re-run-all, and
never a raw traceback from ``json``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.journal import JOURNAL_FILE, JournalError, RunJournal
from repro.experiments.orchestrator import (
    CellSpec,
    OrchestratorConfig,
    run_sweep,
    sweep_fingerprint,
)
from repro.reliability import FaultPlan
from repro.reliability.faults import InjectedFault, inject

CELLS = "_sweep_cells"


def _specs(n=3):
    return [CellSpec(cell_id=f"c{i}", kind=f"{CELLS}:square_cell",
                     params={"x": i}) for i in range(n)]


def _completed_journal(tmp_path, specs):
    """A journal directory left by a finished serial sweep."""
    journal_dir = tmp_path / "journal"
    result = run_sweep(specs, config=OrchestratorConfig(jobs=0),
                       journal_dir=journal_dir)
    assert result.ok
    return journal_dir


def test_create_refuses_to_clobber_existing_journal(tmp_path):
    specs = _specs()
    journal_dir = _completed_journal(tmp_path, specs)
    with pytest.raises(JournalError, match="already exists"):
        run_sweep(specs, config=OrchestratorConfig(jobs=0),
                  journal_dir=journal_dir)  # no resume=True


def test_resume_refuses_a_different_sweep_fingerprint(tmp_path):
    journal_dir = _completed_journal(tmp_path, _specs())
    changed = [CellSpec(cell_id=f"c{i}", kind=f"{CELLS}:square_cell",
                        params={"x": i + 100}) for i in range(3)]
    with pytest.raises(JournalError, match="different sweep"):
        run_sweep(changed, config=OrchestratorConfig(jobs=0),
                  journal_dir=journal_dir, resume=True)


def test_resume_refuses_a_journal_from_another_blas_thread_count(tmp_path,
                                                                 monkeypatch):
    from repro.experiments import orchestrator

    def blas_threads(count):
        getter = None if count is None else (lambda: count)
        monkeypatch.setattr(orchestrator, "openblas_thread_controls",
                            lambda: (None, getter))

    specs = _specs()
    blas_threads(1)
    journal_dir = _completed_journal(tmp_path, specs)
    pinned = sweep_fingerprint(specs)
    blas_threads(4)
    assert sweep_fingerprint(specs) != pinned
    with pytest.raises(JournalError, match="different sweep"):
        run_sweep(specs, config=OrchestratorConfig(jobs=0),
                  journal_dir=journal_dir, resume=True)
    blas_threads(None)  # no OpenBLAS loaded is an identity of its own
    assert sweep_fingerprint(specs) != pinned
    blas_threads(1)
    resumed = run_sweep(specs, config=OrchestratorConfig(jobs=0),
                        journal_dir=journal_dir, resume=True)
    assert [outcome.status for outcome in resumed.outcomes] == ["cached"] * 3


def test_corrupt_journal_is_refused_naming_the_file(tmp_path):
    specs = _specs()
    journal_dir = _completed_journal(tmp_path, specs)
    path = os.path.join(journal_dir, JOURNAL_FILE)

    # flipped byte inside the payload → checksum failure naming the file
    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    envelope["payload"]["cells"]["c0"]["attempts"] = 999
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    with pytest.raises(JournalError, match="checksum") as excinfo:
        RunJournal.resume(journal_dir, sweep_fingerprint(specs))
    assert path in str(excinfo.value)

    # outright garbage → invalid-JSON failure naming the file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    with pytest.raises(JournalError, match="not valid JSON") as excinfo:
        RunJournal.resume(journal_dir, sweep_fingerprint(specs))
    assert path in str(excinfo.value)

    # valid JSON that is not a journal → refused, not KeyError
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"something": "else"}, handle)
    with pytest.raises(JournalError, match="no payload"):
        RunJournal.resume(journal_dir, sweep_fingerprint(specs))


def test_corrupt_cell_result_is_refused_naming_the_file(tmp_path):
    specs = _specs()
    journal_dir = _completed_journal(tmp_path, specs)
    journal = RunJournal.resume(journal_dir, sweep_fingerprint(specs))
    result_path = journal.result_path("c1")
    with open(result_path, "a", encoding="utf-8") as handle:
        handle.write(" ")
    with pytest.raises(JournalError, match="checksum") as excinfo:
        run_sweep(specs, config=OrchestratorConfig(jobs=0),
                  journal_dir=journal_dir, resume=True)
    assert result_path in str(excinfo.value)
    # a deleted result file is reported as missing, not rerun silently
    os.remove(result_path)
    with pytest.raises(JournalError, match="missing"):
        run_sweep(specs, config=OrchestratorConfig(jobs=0),
                  journal_dir=journal_dir, resume=True)


def test_crash_during_journal_write_leaves_previous_journal_usable(tmp_path):
    specs = _specs()
    journal_dir = _completed_journal(tmp_path, specs[:2])
    before = RunJournal.resume(journal_dir, sweep_fingerprint(specs[:2]))
    snapshot = before.snapshot()

    # a new run against the same journal crashes on its very first ledger
    # write (atomic_write_text never runs — the fault fires before it)
    extended = _specs(3)
    plan = FaultPlan(seed=0).fail("orchestrate.journal",
                                  when=lambda d: d.get("op") == "write")
    with inject(plan), pytest.raises(InjectedFault):
        run_sweep(extended, config=OrchestratorConfig(jobs=0),
                  journal_dir=tmp_path / "journal2")
    assert plan.fired == 1
    assert not os.path.exists(tmp_path / "journal2" / JOURNAL_FILE)

    # crash mid-update of the *existing* journal: begin(c0) fires the fault
    plan2 = FaultPlan(seed=0).fail(
        "orchestrate.journal",
        when=lambda d: d.get("op") == "write")
    with inject(plan2), pytest.raises(InjectedFault):
        journal = RunJournal.resume(journal_dir, sweep_fingerprint(specs[:2]))
        journal.begin("c0", specs[0].fingerprint())
    # the on-disk journal is byte-untouched: reload sees the pre-crash state
    after = RunJournal.resume(journal_dir, sweep_fingerprint(specs[:2]))
    assert after.snapshot() == snapshot
    assert after.is_done("c0", specs[0].fingerprint())
    assert after.load_result("c0") == {"x": 0, "value": 11}
