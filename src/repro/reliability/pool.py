"""One supervised spawn-process pool: the supervisor and the worker loop.

:class:`repro.serve.Server` scores micro-batches and
:func:`repro.experiments.orchestrator.run_sweep` runs experiment cells on the
same process machinery, which lives here once:

* **Supervisor side** — :class:`SupervisedPool` owns ``size`` slots, each
  with its own task queue, and one result queue every worker answers on.  It
  spawns the workers (a chaos :class:`~repro.reliability.FaultPlan` arms only
  a slot's *first* incarnation, so a respawned worker is healthy), tracks
  the ``ready``/``fatal`` start-up handshake, and :meth:`~SupervisedPool.reap`
  finds dead workers and respawns them under a restart budget.  ``reap``
  drains every result already sent before it reports a death, so a worker
  that answered and then died is never mistaken for one that died holding
  its job.
* **Worker side** — :func:`worker_loop` ignores ``SIGINT`` (the parent owns
  Ctrl-C), installs the slot's fault plan, calls ``setup(slot_id, *args)``
  to build a per-job handler, reports ``ready`` (or ``fatal`` when setup
  raises), then answers jobs until the ``None`` sentinel arrives or the
  parent process is gone.

Messages the supervisor hands its caller:

* ``("fatal", slot_id, reason)`` — setup raised.  A respawn would fail the
  same way, so callers treat it as unrecoverable.
* ``("result", slot_id, key, status, payload, elapsed_s)`` — the handler's
  ``(status, payload)`` for the job submitted under ``key``, or
  ``("error", "Type: message")`` when the handler raised an ``Exception``.
* ``("died", slot_id, exitcode, respawned)`` — made by :meth:`reap`, never
  sent by a worker.  ``respawned`` is ``False`` once the restart budget is
  spent; the slot then retires.

Anything harsher than an ``Exception`` (``SystemExit`` from an injected
fault, a signal, an OOM kill) ends the worker process, and :meth:`reap`
reports it.  The pool never decides what a job, a death or a spent budget
means: dispatch, stale-result guards and failure policy stay with the caller.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from queue import Empty

from repro.reliability.faults import install_plan

#: ``fork`` is unsafe once the supervisor's threads are running
START_METHOD = "spawn"
#: how long :meth:`SupervisedPool.receive` waits before the caller polls liveness
POLL_INTERVAL_S = 0.05


def check_max_restarts(max_restarts: int) -> None:
    """Validate a restart budget (the pool and both pool configs use this)."""
    if max_restarts < 0:
        raise ValueError("max_restarts must be >= 0")


class Slot:
    """Supervisor-side record of one worker position and its current process."""

    __slots__ = ("id", "process", "queue", "ready", "pid", "spawns", "retired")

    def __init__(self, slot_id: int):
        self.id = slot_id
        self.process = None
        self.queue = None
        self.ready = False
        self.pid: int | None = None
        self.spawns = 0
        self.retired = False

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class SupervisedPool:
    """``size`` spawn workers running ``setup(slot_id, *args)``'s handler.

    ``setup`` must be importable by module path (spawn pickles it by
    reference); it runs once per worker incarnation and returns the
    ``handler(job) -> (status, payload)`` the worker calls per job.
    Not thread-safe: a caller driving it from several threads holds its own
    lock around :meth:`submit`, :meth:`reap` and :meth:`close`.
    """

    def __init__(self, size: int, setup, args: tuple = (), *,
                 max_restarts: int, fault_plans: dict | None = None,
                 name: str = "repro-worker"):
        check_max_restarts(max_restarts)
        self.slots = [Slot(i) for i in range(size)]
        self.max_restarts = max_restarts
        self.restarts_used = 0
        self._setup = setup
        self._args = tuple(args)
        self._fault_plans = dict(fault_plans or {})
        self._name = name
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._results = None
        self._closed = False

    def start(self) -> "SupervisedPool":
        self._results = self._ctx.Queue()
        for slot in self.slots:
            self._spawn(slot)
        return self

    def _spawn(self, slot: Slot) -> None:
        slot.queue = self._ctx.Queue()
        slot.ready = False
        plan = self._fault_plans.get(slot.id) if slot.spawns == 0 else None
        slot.spawns += 1
        slot.process = self._ctx.Process(
            target=worker_loop,
            args=(slot.id, self._setup, self._args, plan, slot.queue,
                  self._results),
            name=f"{self._name}-{slot.id}", daemon=True)
        slot.process.start()
        slot.pid = slot.process.pid

    def submit(self, slot_id: int, key, job) -> None:
        """Queue ``job`` on one slot; its result comes back tagged ``key``."""
        self.slots[slot_id].queue.put((key, job))

    def receive(self):
        """The next ``fatal``/``result`` message, or ``None`` after a poll interval."""
        try:
            message = self._results.get(timeout=POLL_INTERVAL_S)
        except (Empty, OSError, ValueError):
            return None
        return self._note(message)

    def _note(self, message):
        """Consume a ``ready`` handshake; pass every other message through."""
        if message[0] != "ready":
            return message
        _, slot_id, pid = message
        slot = self.slots[slot_id]
        if slot.pid == pid:  # not a late handshake from a dead incarnation
            slot.ready = True
        return None

    def reap(self) -> list:
        """Pending messages, then one ``died`` event per dead worker.

        Respawns each dead worker while the restart budget lasts and retires
        its slot after that.
        """
        dead = [slot for slot in self.slots
                if slot.process is not None and not slot.process.is_alive()]
        if not dead:
            return []
        events = []
        while True:  # a dead worker's last results are already in the pipe
            try:
                message = self._note(self._results.get_nowait())
            except Empty:
                break
            if message is not None:
                events.append(message)
        for slot in dead:
            exitcode = slot.process.exitcode
            respawned = self.restarts_used < self.max_restarts
            if respawned:
                self.restarts_used += 1
                self._spawn(slot)
            else:
                slot.process, slot.retired = None, True
            events.append(("died", slot.id, exitcode, respawned))
        return events

    def kill(self, slot_id: int) -> None:
        """Terminate one worker; the next :meth:`reap` reports and respawns it."""
        _terminate(self.slots[slot_id].process)

    def close(self) -> None:
        """Ask every live worker to exit once its queued jobs are done."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            if slot.alive():
                try:
                    slot.queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - queue closed
                    pass

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Close, join within ``timeout_s``, then terminate whatever is left."""
        self.close()
        deadline = time.monotonic() + timeout_s
        for slot in self.slots:
            if slot.process is not None:
                slot.process.join(timeout=max(deadline - time.monotonic(), 0.1))
                if slot.process.is_alive():
                    _terminate(slot.process)
            if slot.queue is not None:
                slot.queue.cancel_join_thread()
        if self._results is not None:
            self._results.cancel_join_thread()


def _terminate(process) -> None:
    if process is None:
        return
    process.terminate()
    process.join(timeout=2.0)
    if process.is_alive():  # pragma: no cover - terminate is normally enough
        process.kill()
        process.join(timeout=2.0)


# --------------------------------------------------------------------------- #
# Worker process                                                               #
# --------------------------------------------------------------------------- #
def _parent_alive() -> bool:
    parent = multiprocessing.parent_process()
    return parent is None or parent.is_alive()


def worker_loop(slot_id: int, setup, args: tuple, fault_plan, task_queue,
                result_queue) -> None:
    """Entry point of every pool worker process."""
    # The parent owns Ctrl-C handling; a worker interrupted mid-GEMM would
    # otherwise die with a KeyboardInterrupt traceback during test teardown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        install_plan(fault_plan)
        handler = setup(slot_id, *args)
    except Exception as error:  # noqa: BLE001 - reported to the supervisor
        result_queue.put(("fatal", slot_id, f"{type(error).__name__}: {error}"))
        return
    result_queue.put(("ready", slot_id, os.getpid()))

    while True:
        try:
            item = task_queue.get(timeout=1.0)
        except Empty:
            if not _parent_alive():  # orphaned: the supervisor is gone
                return
            continue
        if item is None:  # shutdown sentinel
            return
        key, job = item
        started = time.perf_counter()
        try:
            status, payload = handler(job)
        except Exception as error:  # noqa: BLE001 - isolated per job
            status, payload = "error", f"{type(error).__name__}: {error}"
        result_queue.put(("result", slot_id, key, status, payload,
                          time.perf_counter() - started))
