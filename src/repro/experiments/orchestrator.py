"""Fault-tolerant parallel experiment orchestrator.

Full table regeneration and the DTDBD grid used to run strictly serially: a
crash four tables in lost everything, and the wall-clock was the sum of every
cell.  This module fans **experiment cells** out across a supervised pool of
spawn-context worker processes with robustness as the contract:

* **Cells are deterministic units.**  A cell is a :class:`CellSpec` — a stable
  id, a *kind* (registry name or ``"module:callable"`` import path) and a
  JSON-able parameter dict.  Every stock kind rebuilds its world from scratch
  inside the worker (``prepare_data`` + ``DataBundle.reseed`` +
  ``set_global_seed``), so a cell's result is a pure function of its spec —
  which is what makes parallel execution, retries and re-dispatch after a
  worker death *byte-identical* to the serial run.
* **Journaled.**  With a journal directory, every attempt/completion lands in
  a durable, atomic, checksummed :class:`repro.experiments.journal.RunJournal`
  before the sweep proceeds; a SIGKILLed sweep resumes skipping completed
  cells (``resume=True``) with the skipped results digest-verified, and a
  journal from a different cell grid is refused readably.
* **Supervised.**  Cells run on a
  :class:`repro.reliability.pool.SupervisedPool`, one cell per idle worker.
  Worker death (crash, ``SIGKILL``, an injected ``orchestrate.cell`` fault
  raising ``SystemExit``) is detected by the pool's liveness polling; the
  slot respawns within a bounded restart budget (and retires once it is
  spent) and the cell it held is re-dispatched — zero lost cells.  Per-cell
  failures are retried
  with the seeded backoff of a :class:`repro.reliability.RetryPolicy`, and a
  per-cell wall-clock watchdog (``cell_timeout_s``) kills a wedged worker
  instead of wedging the sweep.
* **Chaos-replayable.**  The ``orchestrate.worker`` (startup),
  ``orchestrate.cell`` (execution) and ``orchestrate.journal`` (ledger I/O)
  fault sites drive the whole failure surface from a seeded
  :class:`repro.reliability.FaultPlan`; ``plan.reset()`` replays a chaos run
  exactly.

The **serial path is the ground truth**: ``OrchestratorConfig(jobs=0)`` runs
the same cells in-process in spec order through the same journal machinery,
and ``tests/experiments_orchestrator`` pins parallel-vs-serial byte-identity
(and parallel-vs-committed ``benchmarks/results`` tables) in both
``REPRO_DTYPE``\\ s.  The CLI ``sweep`` subcommand exposes all of it
(``--jobs``, ``--resume``, ``--journal``).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.journal import RunJournal
from repro.reliability.durable import sha256_bytes
from repro.reliability.faults import fault_point
from repro.reliability.pool import SupervisedPool, check_max_restarts
from repro.reliability.retry import RetryPolicy


class SweepFailed(RuntimeError):
    """The sweep could not complete; the message carries per-cell diagnostics."""


# --------------------------------------------------------------------------- #
# Cell specs and kinds                                                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellSpec:
    """One deterministic unit of experiment work.

    ``kind`` is either a name registered via :func:`register_cell_kind` or a
    ``"module:callable"`` import path (resolved inside the worker process, so
    test suites can ship their own cell functions without pre-registration).
    ``params`` must be JSON-serialisable — it is the cell's entire identity:
    the fingerprint over ``(cell_id, kind, params)`` is what the journal uses
    to decide whether a completed result may be reused.
    """

    cell_id: str
    kind: str
    params: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        payload = {"cell_id": self.cell_id, "kind": self.kind,
                   "params": self.params}
        return sha256_bytes(json.dumps(
            payload, sort_keys=True, separators=(",", ":"),
            default=str).encode("utf-8"))[:16]


def sweep_fingerprint(specs) -> str:
    """Content hash over every cell spec — the journal's sweep identity."""
    parts = sorted(f"{spec.cell_id}:{spec.fingerprint()}" for spec in specs)
    return sha256_bytes("\n".join(parts).encode("utf-8"))[:16]


#: registered cell kinds: name -> callable(spec) -> JSON-able result dict
CELL_KINDS: dict[str, Callable[[CellSpec], dict]] = {}


def register_cell_kind(name: str, fn: Callable[[CellSpec], dict] | None = None):
    """Register a cell kind under ``name`` (usable as a decorator)."""

    def decorate(target):
        CELL_KINDS[name] = target
        return target

    return decorate(fn) if fn is not None else decorate


def resolve_cell_kind(kind: str) -> Callable[[CellSpec], dict]:
    """Look up a registered kind, or import a ``"module:callable"`` path."""
    if kind in CELL_KINDS:
        return CELL_KINDS[kind]
    if ":" in kind:
        module_name, _, attr = kind.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            raise ValueError(
                f"cell kind '{kind}': cannot import module '{module_name}' "
                f"({error})") from error
        fn = getattr(module, attr, None)
        if fn is None:
            raise ValueError(
                f"cell kind '{kind}': module '{module_name}' has no "
                f"attribute '{attr}'")
        return fn
    raise ValueError(
        f"unknown cell kind '{kind}'; registered kinds: "
        f"{sorted(CELL_KINDS)} (or use a 'module:callable' import path)")


def run_cell(spec: CellSpec, attempt: int = 1) -> dict:
    """Execute one cell in the current process and return its result payload.

    The ``orchestrate.cell`` fault site fires before the cell body with the
    cell id, kind and attempt number as its payload — a chaos plan can fail a
    specific cell, a specific attempt, or kill the hosting worker outright
    (``error=SystemExit``).
    """
    fn = resolve_cell_kind(spec.kind)
    fault_point("orchestrate.cell", cell=spec.cell_id, kind=spec.kind,
                attempt=attempt)
    return fn(spec)


# --------------------------------------------------------------------------- #
# Stock cell kinds: paper tables and single-baseline grid cells                #
# --------------------------------------------------------------------------- #
def _json_round_trip(value):
    from repro.experiments.io import results_to_json

    return json.loads(results_to_json(value))


def _prepared_bundle(dataset: str, overrides: dict | None):
    from repro.experiments.config import experiment_config
    from repro.experiments.runner import prepare_data

    config = experiment_config(dataset, overrides)
    bundle = prepare_data(config)
    bundle.reseed()
    return config, bundle


def _run_table1(overrides: dict) -> dict:
    from repro.data import (
        dataset_statistics_table,
        imbalance_summary,
        make_weibo21_like,
    )
    from repro.experiments.tables import format_dataset_statistics

    dataset = make_weibo21_like(scale=1.0, seed=2024)
    table = dataset_statistics_table(dataset)
    summary = imbalance_summary(dataset)
    text = format_dataset_statistics(
        table, title="Table I — Weibo21-like statistics (full scale)")
    text += ("\nImbalance: %News spread "
             f"{summary['news_share_spread']:.1f} points, %Fake spread "
             f"{summary['fake_ratio_spread']:.1f} points")
    return {"text": text,
            "results": _json_round_trip({"statistics": table,
                                         "imbalance": summary})}


def _run_table2(overrides: dict) -> dict:
    from repro.experiments.tables import (
        FUNCTIONAL_COMPARISON,
        format_functional_comparison,
    )

    return {"text": format_functional_comparison(),
            "results": _json_round_trip(FUNCTIONAL_COMPARISON)}


def _run_table3(overrides: dict) -> dict:
    import numpy as np

    from repro.analysis import TABLE3_MODELS
    from repro.experiments.runner import run_table3
    from repro.experiments.tables import format_bias_audit

    config, bundle = _prepared_bundle("chinese", overrides)
    audit = run_table3(config, models=TABLE3_MODELS, bundle=bundle)
    text = format_bias_audit(audit, title="Table III — FNR/FPR on skewed domains")
    summary = audit.skew_summary()
    lines = ["", "Shape check (mean over models):"]
    fake_heavy_fpr = np.mean([s["fake_heavy_fpr"] for s in summary.values()])
    fake_heavy_fnr = np.mean([s["fake_heavy_fnr"] for s in summary.values()])
    real_heavy_fpr = np.mean([s["real_heavy_fpr"] for s in summary.values()])
    real_heavy_fnr = np.mean([s["real_heavy_fnr"] for s in summary.values()])
    lines.append(f"  fake-heavy domains: FPR={fake_heavy_fpr:.3f} vs FNR={fake_heavy_fnr:.3f}")
    lines.append(f"  real-heavy domains: FNR={real_heavy_fnr:.3f} vs FPR={real_heavy_fpr:.3f}")
    return {"text": text + "\n".join(lines),
            "results": _json_round_trip({"table": audit.as_table(),
                                         "skew": summary})}


def _run_table4(overrides: dict) -> dict:
    from repro.data import dataset_statistics_table, make_weibo21_like
    from repro.experiments.tables import format_dataset_statistics

    table = dataset_statistics_table(make_weibo21_like(scale=1.0, seed=2024))
    return {"text": format_dataset_statistics(
                table, title="Table IV — Chinese dataset statistics"),
            "results": _json_round_trip(table)}


def _run_table5(overrides: dict) -> dict:
    from repro.data import dataset_statistics_table, make_english_like
    from repro.experiments.tables import format_dataset_statistics

    table = dataset_statistics_table(make_english_like(scale=0.1, seed=2024))
    return {"text": format_dataset_statistics(
                table, title="Table V — English dataset statistics (scale 0.1)"),
            "results": _json_round_trip(table)}


def _run_comparison_table(dataset: str, overrides: dict, baselines,
                          title: str) -> dict:
    from repro.experiments.runner import run_comparison
    from repro.experiments.tables import format_comparison_table

    config, bundle = _prepared_bundle(dataset, overrides)
    reports = run_comparison(config, baselines=baselines, bundle=bundle)
    text = format_comparison_table(reports, bundle.dataset.domain_names,
                                   title=title)
    return {"text": text, "results": _json_round_trip(reports)}


def _run_table6(overrides: dict) -> dict:
    from repro.experiments.runner import TABLE6_BASELINES

    return _run_comparison_table("chinese", overrides, TABLE6_BASELINES,
                                 "Table VI — Chinese dataset comparison")


def _run_table7(overrides: dict) -> dict:
    from repro.experiments.runner import TABLE7_BASELINES

    return _run_comparison_table("english", overrides, TABLE7_BASELINES,
                                 "Table VII — English dataset comparison")


def _run_table8(overrides: dict) -> dict:
    from repro.experiments.runner import run_table8_ablation
    from repro.experiments.tables import format_compact_table

    config, bundle = _prepared_bundle("chinese", overrides)
    results = run_table8_ablation(config, student_names=("textcnn_s", "bigru_s"),
                                  bundle=bundle)
    blocks = [format_compact_table(rows, title=f"Table VIII — ablation ({name})")
              for name, rows in results.items()]
    return {"text": "\n\n".join(blocks), "results": _json_round_trip(results)}


def _run_table9(overrides: dict) -> dict:
    from repro.experiments.runner import run_table9_dat_comparison
    from repro.experiments.tables import format_compact_table

    config, bundle = _prepared_bundle("chinese", overrides)
    results = run_table9_dat_comparison(config,
                                        student_names=("textcnn_s", "bigru_s"),
                                        bundle=bundle)
    blocks = [format_compact_table(rows, title=f"Table IX — DAT vs DAT-IE ({name})")
              for name, rows in results.items()]
    return {"text": "\n\n".join(blocks), "results": _json_round_trip(results)}


def _run_fig2(overrides: dict) -> dict:
    from repro.experiments.runner import run_figure2_mixing
    from repro.experiments.tables import format_mixing_scores

    config, bundle = _prepared_bundle("chinese", overrides)
    scores = run_figure2_mixing(config, bundle=bundle, max_points=250)
    return {"text": format_mixing_scores(
                scores, title="Figure 2 — t-SNE domain-mixing scores"),
            "results": _json_round_trip(scores)}


def _run_fig3(overrides: dict) -> dict:
    from repro.analysis import case_study_summary
    from repro.experiments.runner import run_figure3_case_study
    from repro.experiments.tables import format_case_study

    config, bundle = _prepared_bundle("chinese", overrides)
    rows = run_figure3_case_study(config, bundle=bundle)
    summary = case_study_summary(rows)
    text = format_case_study(rows, title="Figure 3 — case study (ambiguous real news)")
    text += "\n\nPer-model mean confidence in the true label:\n"
    for model, stats in summary.items():
        text += (f"    {model.ljust(10)} accuracy={stats['accuracy']:.2f} "
                 f"confidence={stats['mean_confidence_true_label']:.3f}\n")
    return {"text": text,
            "results": _json_round_trip({"rows": [row.as_dict() for row in rows],
                                         "summary": summary})}


@dataclass(frozen=True)
class TableCell:
    """One regenerable paper table: its runner and its results-file stem."""

    name: str
    output: str                      # benchmarks/results/<output>.txt
    runner: Callable[[dict], dict]


#: every committed ``benchmarks/results`` table, regenerable as a sweep cell
TABLE_CELLS: dict[str, TableCell] = {
    cell.name: cell for cell in (
        TableCell("table1", "table1_dataset_stats", _run_table1),
        TableCell("table2", "table2_functional_matrix", _run_table2),
        TableCell("table3", "table3_domain_bias", _run_table3),
        TableCell("table4", "table4_chinese_stats", _run_table4),
        TableCell("table5", "table5_english_stats", _run_table5),
        TableCell("table6", "table6_chinese_comparison", _run_table6),
        TableCell("table7", "table7_english_comparison", _run_table7),
        TableCell("table8", "table8_ablation", _run_table8),
        TableCell("table9", "table9_dat_vs_datie", _run_table9),
        TableCell("fig2", "fig2_tsne_mixing", _run_fig2),
        TableCell("fig3", "fig3_case_study", _run_fig3),
    )
}


@register_cell_kind("table")
def table_cell(spec: CellSpec) -> dict:
    """Regenerate one paper table (``params: {"table": name, "config": {...}}``)."""
    name = spec.params.get("table")
    if name not in TABLE_CELLS:
        raise ValueError(f"unknown table '{name}'; available tables: "
                         f"{sorted(TABLE_CELLS)}")
    entry = TABLE_CELLS[name]
    payload = entry.runner(dict(spec.params.get("config") or {}))
    payload["table"] = name
    payload["output"] = entry.output
    return payload


@register_cell_kind("baseline")
def baseline_cell(spec: CellSpec) -> dict:
    """Train + evaluate one baseline — one cell of the comparison grid.

    ``params``: ``name`` (registry model name), ``dataset``, optional
    ``seed_offset`` and ``config`` overrides.  The cell builds its own bundle,
    so it is deterministic standalone (unlike a row inside ``run_comparison``,
    whose RNG streams depend on the rows trained before it).
    """
    from repro.experiments.runner import train_baseline

    name = spec.params["name"]
    config, bundle = _prepared_bundle(spec.params.get("dataset", "chinese"),
                                      spec.params.get("config"))
    _, report = train_baseline(name, bundle,
                               seed_offset=int(spec.params.get("seed_offset", 0)))
    return {"name": name, "dataset": config.dataset,
            "report": _json_round_trip(report)}


def table_cell_specs(tables=None, config: dict | None = None) -> list[CellSpec]:
    """Build the cell specs for a table-regeneration sweep."""
    names = list(tables) if tables else list(TABLE_CELLS)
    unknown = [name for name in names if name not in TABLE_CELLS]
    if unknown:
        raise ValueError(f"unknown table(s) {unknown}; available: "
                         f"{sorted(TABLE_CELLS)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"table(s) {repeated} named more than once")
    overrides = dict(config or {})
    return [CellSpec(cell_id=name, kind="table",
                     params={"table": name, "config": overrides})
            for name in names]


# --------------------------------------------------------------------------- #
# Orchestration                                                                #
# --------------------------------------------------------------------------- #
@dataclass
class OrchestratorConfig:
    """Knobs of the sweep runner (see module docstring for semantics)."""

    #: worker processes; 0 runs the serial in-process ground-truth path
    jobs: int = 2
    #: per-cell retry budget and backoff; ``attempts`` executions per cell
    retry: RetryPolicy | None = None
    #: per-cell wall-clock watchdog; a cell over budget costs one attempt and
    #: its worker is killed + respawned (None = unbounded)
    cell_timeout_s: float | None = None
    #: total worker respawns allowed; a slot retires once they are spent
    max_restarts: int = 8
    #: modules imported in every worker before cells run (test cell kinds,
    #: custom registrations); must be importable from the worker's sys.path
    worker_modules: tuple[str, ...] = ()
    #: chaos harness: per-worker-slot FaultPlans; only a slot's FIRST
    #: incarnation is armed, so a respawned worker is healthy
    fault_plans: dict | None = None
    #: called with one readable line per event (dispatch/ok/retry/fail/skip)
    on_progress: Callable[[str], None] | None = None

    def __post_init__(self):
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = serial in-process)")
        check_max_restarts(self.max_restarts)
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")
        if self.retry is None:
            self.retry = RetryPolicy(attempts=2, base_delay_s=0.05,
                                     max_delay_s=1.0, retry_on=(Exception,))

    def _progress(self, line: str) -> None:
        if self.on_progress is not None:
            self.on_progress(line)


@dataclass
class CellOutcome:
    """What happened to one cell in this sweep session."""

    spec: CellSpec
    status: str                      # "done" | "failed" | "cached"
    #: executions in this session (0 for a journal-cached cell)
    attempts: int = 0
    #: cumulative executions including journaled history
    total_attempts: int = 0
    elapsed_s: float = 0.0
    error: str | None = None
    result: dict | None = None

    def describe(self) -> str:
        """One readable line for logs and CLI output."""
        if self.status == "cached":
            return (f"skip {self.spec.cell_id}: journaled result reused "
                    f"({self.total_attempts} past attempt(s))")
        if self.status == "done":
            return (f"ok   {self.spec.cell_id}: {self.elapsed_s:.1f}s in "
                    f"{self.attempts} attempt(s)")
        return (f"FAIL {self.spec.cell_id}: after {self.attempts} attempt(s): "
                f"{self.error}")


@dataclass
class SweepResult:
    """All cell outcomes, in spec order."""

    outcomes: list[CellOutcome]

    @property
    def results(self) -> dict:
        return {outcome.spec.cell_id: outcome.result
                for outcome in self.outcomes
                if outcome.status in ("done", "cached")}

    @property
    def failures(self) -> list[CellOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.status == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def report_lines(self) -> list[str]:
        return [outcome.describe() for outcome in self.outcomes]

    def raise_on_failure(self) -> "SweepResult":
        if self.failures:
            lines = "; ".join(outcome.describe() for outcome in self.failures)
            raise SweepFailed(f"{len(self.failures)} cell(s) failed: {lines}")
        return self


class _CellState:
    """Supervisor-side bookkeeping for one not-yet-finished cell."""

    __slots__ = ("spec", "fingerprint", "attempts", "delays", "not_before",
                 "last_error", "started")

    def __init__(self, spec: CellSpec, fingerprint: str, policy: RetryPolicy):
        self.spec = spec
        self.fingerprint = fingerprint
        self.attempts = 0
        self.delays = policy.delays()
        self.not_before = 0.0
        self.last_error: str | None = None
        #: monotonic dispatch time of the running attempt (cell watchdog)
        self.started = 0.0


def run_sweep(specs, config: OrchestratorConfig | None = None,
              journal_dir: str | os.PathLike | None = None,
              resume: bool = False) -> SweepResult:
    """Run every cell, journaling progress; returns outcomes in spec order.

    With ``journal_dir``: a fresh sweep refuses an existing journal (pass
    ``resume=True`` to skip its completed cells instead), and every attempt /
    completion is durable before the sweep moves on — kill this process at any
    point and a resume finishes exactly the remaining cells.
    """
    specs = list(specs)
    config = config or OrchestratorConfig()
    seen: set[str] = set()
    for spec in specs:
        if spec.cell_id in seen:
            raise ValueError(f"duplicate cell_id '{spec.cell_id}' in sweep")
        seen.add(spec.cell_id)
    fingerprints = {spec.cell_id: spec.fingerprint() for spec in specs}

    journal = None
    if journal_dir is not None:
        fingerprint = sweep_fingerprint(specs)
        journal = (RunJournal.resume(journal_dir, fingerprint) if resume
                   else RunJournal.create(journal_dir, fingerprint))

    outcomes: dict[str, CellOutcome] = {}
    todo: list[CellSpec] = []
    for spec in specs:
        if journal is not None and journal.is_done(spec.cell_id,
                                                   fingerprints[spec.cell_id]):
            record = journal.records[spec.cell_id]
            outcomes[spec.cell_id] = CellOutcome(
                spec=spec, status="cached", attempts=0,
                total_attempts=record.attempts,
                elapsed_s=record.elapsed_s or 0.0,
                result=journal.load_result(spec.cell_id))
            config._progress(outcomes[spec.cell_id].describe())
        else:
            todo.append(spec)

    if todo:
        if config.jobs == 0:
            _run_serial(todo, config, journal, fingerprints, outcomes)
        else:
            _run_pool(todo, config, journal, fingerprints, outcomes)
    return SweepResult([outcomes[spec.cell_id] for spec in specs])


# --------------------------------------------------------------------------- #
# Serial ground-truth executor                                                 #
# --------------------------------------------------------------------------- #
def _run_serial(todo, config, journal, fingerprints, outcomes) -> None:
    from repro.reliability.watchdog import WatchdogTimeout, watchdog

    policy = config.retry
    for spec in todo:
        delays = policy.delays()
        last_error = None
        for attempt in range(1, policy.attempts + 1):
            if journal is not None:
                journal.begin(spec.cell_id, fingerprints[spec.cell_id])
            started = time.perf_counter()
            try:
                if config.cell_timeout_s is not None:
                    with watchdog(config.cell_timeout_s,
                                  message=f"cell {spec.cell_id}"):
                        result = run_cell(spec, attempt=attempt)
                else:
                    result = run_cell(spec, attempt=attempt)
            except WatchdogTimeout as error:
                last_error = (f"cell exceeded its {config.cell_timeout_s:g}s "
                              f"wall-clock budget ({error})")
            except Exception as error:  # noqa: BLE001 - isolated per cell
                last_error = f"{type(error).__name__}: {error}"
            else:
                elapsed = time.perf_counter() - started
                if journal is not None:
                    journal.complete(spec.cell_id, result, elapsed)
                record = journal.records[spec.cell_id] if journal else None
                outcomes[spec.cell_id] = CellOutcome(
                    spec=spec, status="done", attempts=attempt,
                    total_attempts=record.attempts if record else attempt,
                    elapsed_s=elapsed, result=result)
                config._progress(outcomes[spec.cell_id].describe())
                break
            config._progress(f"retry {spec.cell_id}: attempt {attempt} "
                             f"failed: {last_error}")
            if attempt < policy.attempts:
                policy.sleep(next(delays, 0.0))
        else:
            if journal is not None:
                journal.fail(spec.cell_id, last_error)
            outcomes[spec.cell_id] = CellOutcome(
                spec=spec, status="failed", attempts=policy.attempts,
                total_attempts=(journal.records[spec.cell_id].attempts
                                if journal else policy.attempts),
                error=last_error)
            config._progress(outcomes[spec.cell_id].describe())


# --------------------------------------------------------------------------- #
# Supervised process-pool executor                                             #
# --------------------------------------------------------------------------- #
def _run_pool(todo, config, journal, fingerprints, outcomes) -> None:
    policy = config.retry
    pool = SupervisedPool(min(config.jobs, len(todo)), _sweep_worker_setup,
                          (tuple(config.worker_modules),),
                          max_restarts=config.max_restarts,
                          fault_plans=config.fault_plans,
                          name="repro-sweep-worker")
    states = {spec.cell_id: _CellState(spec, fingerprints[spec.cell_id], policy)
              for spec in todo}
    ready_queue: deque[_CellState] = deque(states[s.cell_id] for s in todo)
    running: dict[int, _CellState] = {}  # slot id -> the cell it holds
    finished: set[str] = set()

    def finish_done(state: _CellState, result, elapsed: float) -> None:
        if journal is not None:
            journal.complete(state.spec.cell_id, result, elapsed)
        record = journal.records[state.spec.cell_id] if journal else None
        outcomes[state.spec.cell_id] = CellOutcome(
            spec=state.spec, status="done", attempts=state.attempts,
            total_attempts=record.attempts if record else state.attempts,
            elapsed_s=elapsed, result=result)
        finished.add(state.spec.cell_id)
        config._progress(outcomes[state.spec.cell_id].describe())

    def fail_attempt(state: _CellState, error_text: str) -> None:
        state.last_error = error_text
        if state.attempts < policy.attempts:
            delay = next(state.delays, 0.0)
            state.not_before = time.monotonic() + delay
            ready_queue.append(state)
            config._progress(f"retry {state.spec.cell_id}: attempt "
                             f"{state.attempts} failed: {error_text}")
            return
        if journal is not None:
            journal.fail(state.spec.cell_id, error_text)
        record = journal.records[state.spec.cell_id] if journal else None
        outcomes[state.spec.cell_id] = CellOutcome(
            spec=state.spec, status="failed", attempts=state.attempts,
            total_attempts=record.attempts if record else state.attempts,
            error=error_text)
        finished.add(state.spec.cell_id)
        config._progress(outcomes[state.spec.cell_id].describe())

    def handle(message) -> None:
        kind = message[0]
        if kind == "fatal":
            _, worker_id, reason = message
            raise SweepFailed(
                f"sweep worker {worker_id} cannot start: {reason}")
        if kind == "died":
            # A dead worker's cell costs one attempt and is re-dispatched.
            _, worker_id, exitcode, _respawned = message
            state = running.pop(worker_id, None)
            if state is not None:
                fail_attempt(state, f"worker died (exit {exitcode}) "
                                    "while running this cell")
            return
        _, worker_id, cell_id, status, payload, elapsed = message
        state = running.get(worker_id)
        if state is None or state.spec.cell_id != cell_id:
            return  # stale result from a worker we already gave up on
        del running[worker_id]
        if status == "ok":
            finish_done(state, payload, elapsed)
        else:
            fail_attempt(state, str(payload))

    try:
        pool.start()
        while len(finished) < len(todo):
            message = pool.receive()
            if message is not None:
                handle(message)
                continue  # drain bursts before paying for liveness checks
            for event in pool.reap():
                handle(event)

            now = time.monotonic()
            for slot in pool.slots:
                state = running.get(slot.id)
                if state is not None:
                    # Per-cell wall-clock watchdog: kill the wedged worker;
                    # the next reap respawns it.
                    if (config.cell_timeout_s is not None
                            and now - state.started > config.cell_timeout_s):
                        del running[slot.id]
                        pool.kill(slot.id)
                        fail_attempt(state, f"cell exceeded its "
                                            f"{config.cell_timeout_s:g}s "
                                            "wall-clock budget; worker killed")
                    continue
                if slot.ready and slot.alive() and ready_queue:
                    state = _next_dispatchable(ready_queue, now)
                    if state is None:
                        continue
                    state.attempts += 1
                    if journal is not None:
                        journal.begin(state.spec.cell_id, state.fingerprint)
                    state.started = now
                    running[slot.id] = state
                    pool.submit(slot.id, state.spec.cell_id,
                                (state.spec, state.attempts))
            if all(slot.retired for slot in pool.slots) and len(finished) < len(todo):
                raise SweepFailed(
                    f"all workers retired after the restart budget "
                    f"({config.max_restarts}) was spent with "
                    f"{len(todo) - len(finished)} cell(s) unfinished; the "
                    "journal keeps completed cells — fix the fault and resume")
    finally:
        pool.shutdown()


def _next_dispatchable(ready_queue: deque, now: float):
    """Pop the first cell whose retry backoff has elapsed (None if all waiting)."""
    for _ in range(len(ready_queue)):
        state = ready_queue.popleft()
        if state.not_before <= now:
            return state
        ready_queue.append(state)
    return None


# --------------------------------------------------------------------------- #
# Worker process                                                               #
# --------------------------------------------------------------------------- #
def _sweep_worker_setup(worker_id: int, worker_modules: tuple[str, ...]):
    """Prepare a pool worker for cells; return the per-cell handler.

    Per-cell errors come back as ``"error"`` results; anything harsher
    (``SystemExit`` from an injected ``orchestrate.cell`` fault, a signal, an
    OOM kill) ends the process, and the sweep re-dispatches the cell.
    """
    fault_point("orchestrate.worker", worker=worker_id)
    for name in worker_modules:
        importlib.import_module(name)
    return _run_cell_job


def _run_cell_job(job) -> tuple[str, dict]:
    spec, attempt = job
    return "ok", run_cell(spec, attempt=attempt)
