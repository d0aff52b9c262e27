"""Deterministic fault injection: make failures a first-class, testable input.

The production story of this repository — checkpoints, pipeline artifacts,
serving queues — is only as strong as its behaviour under failure, and
failures that cannot be reproduced cannot be tested.  This module provides a
seeded, deterministic fault-injection harness:

* :func:`fault_point` — an instrumentation hook placed at the durability- and
  availability-critical call sites listed below (artifact reads/writes,
  serving encodes, trainer batch steps, pool-worker start-up and scoring,
  sweep cells and journal).  With no plan installed it is a single global
  load and ``is None`` check — measurably free (pinned by
  ``benchmarks/perf/test_perf_reliability.py``).
* :class:`FaultPlan` — a schedule of :class:`FaultRule`\\ s saying *which* site
  fails, *when* (call count, probability drawn from the plan's seeded RNG, or
  a predicate over the site's detail payload) and *how* (raise or stall).
* :func:`inject` — a context manager installing a plan for the duration of a
  ``with`` block; the chaos suite under ``tests/reliability/`` is built on it.

Every decision a plan makes is derived from its constructor seed and the
deterministic order of ``fault_point`` calls, so a chaos test that fails
replays identically.

Each site stands for a failure the shipped system meets without injection.
``tests/reliability/test_fault_sites.py`` pins this table to the
``fault_point`` calls under ``src/`` and requires a ``FaultPlan`` rule naming
each site in ``tests/`` or ``benchmarks/``:

=======================  ====================================================
site                     real failure source
=======================  ====================================================
``io.read``              a transient read error or stall on an artifact,
                         checkpoint or snapshot file
``io.write``             a full disk, or a crash part-way through a write
``orchestrate.journal``  a disk error reading or appending the sweep journal
``orchestrate.cell``     a sweep cell that raises, hangs or kills its worker
``orchestrate.worker``   a sweep worker process that dies while starting up
``serve.worker.start``   a serving worker that dies while loading the artifact
                         (OOM kill, signal)
``serve.worker.step``    a serving worker that dies between claiming a batch
                         and scoring it
``serve.encode``         one request item whose encode fails (hostile input to
                         a custom channel or backend); the seam of the
                         "one poisoned item errors alone" serving contract
``trainer.step``         a signal or crash mid-epoch, survived through
                         ``Trainer.snapshot``/``resume``
=======================  ====================================================
"""

from __future__ import annotations

import fnmatch
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

#: The currently installed plan; ``None`` keeps fault_point at zero cost.
_ACTIVE: "FaultPlan | None" = None


class InjectedFault(RuntimeError):
    """The error raised by a firing fault rule (unless the rule overrides it)."""


@dataclass
class FaultRule:
    """One scheduled failure: where, when and how.

    ``site`` is an ``fnmatch`` pattern against the fault-point name
    (``"io.*"`` matches every I/O site).  The rule starts firing after the
    matching call with index ``after`` (0-based count of *matching* calls),
    fires at most ``times`` times (``None`` = unlimited) and, when
    ``probability < 1``, flips a coin from the owning plan's seeded RNG.
    ``when`` optionally gates on the site's detail payload (e.g. *fail any
    serving batch containing this text*), which is how data-dependent poison
    is modelled deterministically.
    """

    site: str
    action: str = "raise"                      # "raise" | "stall"
    error: BaseException | type[BaseException] | None = None
    delay_s: float = 0.0
    after: int = 0
    times: int | None = 1
    probability: float = 1.0
    when: Callable[[dict], bool] | None = None
    #: mutable counters (owned by the plan, not user input)
    seen: int = 0
    fired: int = 0


@dataclass
class FaultEvent:
    """One firing, recorded on the plan for assertions and diagnostics."""

    site: str
    action: str
    call_index: int
    rule_index: int


class FaultPlan:
    """A seeded, deterministic schedule of injected failures."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.rules: list[FaultRule] = []
        self.events: list[FaultEvent] = []
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    # Authoring                                                            #
    # ------------------------------------------------------------------ #
    def fail(self, site: str, *, error: BaseException | type[BaseException] | None = None,
             after: int = 0, times: int | None = 1, probability: float = 1.0,
             when: Callable[[dict], bool] | None = None) -> "FaultPlan":
        """Schedule matching calls to raise (``InjectedFault`` by default)."""
        self.rules.append(FaultRule(site=site, action="raise", error=error,
                                    after=after, times=times,
                                    probability=probability, when=when))
        return self

    def stall(self, site: str, *, delay_s: float, after: int = 0,
              times: int | None = 1, probability: float = 1.0,
              when: Callable[[dict], bool] | None = None) -> "FaultPlan":
        """Schedule matching calls to sleep ``delay_s`` before proceeding."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        self.rules.append(FaultRule(site=site, action="stall", delay_s=delay_s,
                                    after=after, times=times,
                                    probability=probability, when=when))
        return self

    def reset(self) -> None:
        """Re-arm every rule and reseed the probability stream (exact replay)."""
        for rule in self.rules:
            rule.seen = 0
            rule.fired = 0
        self.events.clear()
        self._rng = np.random.default_rng(self.seed)

    @property
    def fired(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------ #
    # Firing (called from fault_point)                                     #
    # ------------------------------------------------------------------ #
    def _on(self, site: str, detail: dict) -> None:
        for index, rule in enumerate(self.rules):
            if not fnmatch.fnmatchcase(site, rule.site):
                continue
            if rule.when is not None and not rule.when(detail):
                continue
            call_index = rule.seen
            rule.seen += 1
            if call_index < rule.after:
                continue
            if rule.times is not None and rule.fired >= rule.times:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            self.events.append(FaultEvent(site=site, action=rule.action,
                                          call_index=call_index, rule_index=index))
            if rule.action == "stall":
                time.sleep(rule.delay_s)
                continue
            error = rule.error
            if error is None:
                raise InjectedFault(
                    f"injected fault at '{site}' (matching call #{call_index})")
            raise error() if isinstance(error, type) else error


def fault_point(site: str, **detail) -> None:
    """Instrumentation hook; a no-op unless a plan is installed via :func:`inject`.

    ``detail`` keyword arguments become the payload rules can predicate on
    (e.g. ``fault_point("serve.encode", texts=texts)``).  They are evaluated
    even when no plan is installed, so hot-path sites pass cheap references
    (the caller's own list, ints), never per-call copies.
    """
    if _ACTIVE is None:
        return
    _ACTIVE._on(site, detail)


def active_plan() -> "FaultPlan | None":
    """The plan currently installed (``None`` outside :func:`inject`)."""
    return _ACTIVE


def install_plan(plan: "FaultPlan | None") -> None:
    """Install ``plan`` unconditionally (or clear it with ``None``).

    :func:`inject` is the right tool inside one process — it scopes the plan
    to a ``with`` block and refuses to nest.  Worker *processes* have no such
    scope: the serving pool ships a pickled plan to each spawned worker, whose
    entire lifetime is the chaos experiment, so the worker installs it once at
    startup and never uninstalls it.  Rule counters start fresh in every
    worker (each gets its own copy of the plan), which is what makes
    per-worker schedules like "die on your 3rd batch" deterministic.
    """
    global _ACTIVE
    _ACTIVE = plan


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the ``with`` block.

    Plans do not nest — chaos runs compose rules into one plan instead, which
    keeps the call-count bookkeeping unambiguous.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already installed; inject() does not nest")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
