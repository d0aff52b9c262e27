"""Fault-tolerant multi-process serving tier over a pipeline artifact.

``repro.serve.MicroBatcher`` is deliberately synchronous: one process, one
engine, flushes on the caller's thread.  :class:`Server` is the tier above
it, built for traffic that does not stop when a worker does:

* **Front-end** — thread-safe :meth:`Server.submit_ticket` plus asyncio
  :meth:`Server.submit` / :meth:`Server.submit_many` (and a stdlib-only HTTP
  endpoint in :mod:`repro.serve.http`).  Requests are validated up front and
  queued as :class:`ServerTicket`\\ s.
* **Shared micro-batch queue** — a dispatcher thread groups pending tickets
  into :class:`repro.serve.worker.BatchJob`\\ s under the flush rule it shares
  with :class:`MicroBatcher` (:func:`repro.serve.microbatch.flush_decision`:
  flush on ``max_batch`` or on the oldest ticket waiting ``max_latency_ms``),
  sheds tickets whose deadline already passed, and assigns each batch to the
  least-loaded worker.
* **Supervised worker pool** — a :class:`repro.reliability.pool.SupervisedPool`
  of OS processes, each of which loads the artifact once (checksum-verified)
  and scores batches through the fused ``no_grad`` path
  (:mod:`repro.serve.worker`).  The pool detects worker death
  (crash, ``SIGKILL``, or an injected ``serve.worker.step`` fault) after
  draining the results already sent, and respawns the slot; the server then
  **re-dispatches every batch the dead worker still held** — scoring is
  pure, duplicates are dropped at the collector, and no ticket is ever
  silently lost.  A death after the restart budget is spent fails the
  server readably.
* **Backpressure** — a bounded queue: once the number of unresolved tickets
  reaches ``queue_high_water``, :meth:`submit_ticket` raises
  :class:`ServerOverloaded` instead of growing the queue without bound.
* **Deadlines** — a per-request ``deadline_ms`` propagates into the queue;
  expired tickets are shed by the dispatcher before batching and by workers
  before scoring, so a saturated pool spends no engine time on answers
  nobody is waiting for.

Every ticket ends in exactly one :class:`repro.serve.ServeStats` bucket
(served / failed / expired, or rejected / shed at the door), which is the
ledger :meth:`Server.health` reports.

The chaos contract — kill a worker mid-ramp, recover with zero lost tickets
and bit-identical predictions — is pinned by ``tests/serve_server/`` and
measured by ``benchmarks/perf/test_perf_serving.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import numbers
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.reliability.pool import SupervisedPool, check_max_restarts
from repro.serve.microbatch import flush_decision
from repro.serve.pipeline import read_manifest, verify_pipeline
from repro.serve.predictor import Prediction, resolve_domain, text_problem
from repro.serve.stats import ServeStats
from repro.serve.worker import BatchJob, worker_setup


class ServerOverloaded(RuntimeError):
    """The queue is at its high-water mark; the request was shed, not queued."""


@dataclass
class ServerConfig:
    """Knobs of the serving tier (see module docstring for semantics)."""

    workers: int = 2
    max_batch: int = 32
    #: flush a partial batch once its oldest ticket has waited this long
    max_latency_ms: float = 5.0
    #: unresolved-ticket bound; submissions beyond it raise ServerOverloaded
    queue_high_water: int = 256
    #: deadline applied to tickets submitted without one (None = no deadline)
    default_deadline_ms: float | None = None
    max_text_chars: int = 100_000
    #: total respawns allowed before the server declares itself failed
    max_restarts: int = 8
    verify_artifact: bool = True
    bucket_size: int | None = None
    #: chaos harness: per-worker-slot FaultPlans shipped to the workers.
    #: Only the FIRST incarnation of a slot gets its plan — a respawned
    #: worker is healthy, so an injected kill exercises exactly one death.
    fault_plans: dict | None = None
    #: keep a log of every dispatched batch's composition (tests/benchmarks
    #: replay it through a single-process Predictor to pin bit-parity)
    record_batches: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_latency_ms < 0:
            raise ValueError("max_latency_ms must be non-negative")
        if self.queue_high_water < 1:
            raise ValueError("queue_high_water must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        check_max_restarts(self.max_restarts)


class ServerTicket:
    """Handle for one queued request; resolved by the collector thread."""

    __slots__ = ("id", "text", "domain", "submitted_at", "resolved_perf",
                 "deadline", "batch_id", "_event", "_result", "_callbacks",
                 "_cb_lock")

    def __init__(self, ticket_id: int, text: str, domain: int,
                 deadline: float | None):
        self.id = ticket_id
        self.text = text
        self.domain = domain
        self.submitted_at = time.perf_counter()
        self.resolved_perf: float | None = None
        #: absolute time.monotonic() deadline (None = wait forever)
        self.deadline = deadline
        self.batch_id: int | None = None
        self._event = threading.Event()
        self._result: Prediction | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def prediction(self) -> Prediction:
        if self._result is None:
            raise RuntimeError("ticket is not resolved yet; call result()")
        return self._result

    def result(self, timeout: float | None = None) -> Prediction:
        """Block until the ticket resolves; raises ``TimeoutError`` otherwise."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"ticket {self.id} not resolved within {timeout}s "
                "(queue saturated or server stopped?)")
        return self._result

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` on resolution (immediately if already done).

        Callbacks may fire from the collector thread — asyncio callers must
        trampoline through ``loop.call_soon_threadsafe``.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def _resolve(self, prediction: Prediction) -> bool:
        with self._cb_lock:
            if self._event.is_set():
                return False  # duplicate result (re-dispatched batch)
            self.resolved_perf = time.perf_counter()
            prediction.latency_ms = (self.resolved_perf - self.submitted_at) * 1e3
            self._result = prediction
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            fn(self)
        return True


@dataclass
class _Inflight:
    """A dispatched batch: the job, its tickets and the owning worker slot."""

    job: BatchJob
    tickets: list[ServerTicket]
    slot: int = -1


class Server:
    """Supervised worker-pool serving over one pipeline artifact directory."""

    def __init__(self, artifact_path: str | os.PathLike,
                 config: ServerConfig | None = None):
        self.artifact_path = os.fspath(artifact_path)
        self.config = config or ServerConfig()
        self.stats = ServeStats()
        self.batch_records: list[dict] = []
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque[ServerTicket] = deque()
        self._inflight: dict[int, _Inflight] = {}
        self._unresolved = 0
        self._pool = SupervisedPool(
            self.config.workers, worker_setup,
            (self.artifact_path, self.config.bucket_size),
            max_restarts=self.config.max_restarts,
            fault_plans=self.config.fault_plans, name="repro-serve-worker")
        #: per worker slot: the dispatched batches it has not answered yet
        self._outstanding: list[dict[int, _Inflight]] = [
            {} for _ in range(self.config.workers)]
        self._ticket_ids = itertools.count()
        self._batch_ids = itertools.count()
        self._state = "new"
        self._failed_reason: str | None = None
        self._stop_requested = False
        self._flush_requested = False
        self._collector_stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None
        # Filled from the manifest on start()
        self.model_name = ""
        self.dtype = ""
        self.domain_names: list[str] = []
        self._num_domains = 0
        self.default_domain = 0

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def start(self) -> "Server":
        """Verify the artifact, spawn the pool and the supervisor threads."""
        if self._state != "new":
            raise RuntimeError(f"server already {self._state}; build a new one")
        if self.config.verify_artifact:
            verify_pipeline(self.artifact_path)  # fail fast in the parent too
        self._read_manifest()
        with self._lock:
            self._pool.start()
            self._state = "running"
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="repro-serve-dispatch",
                                            daemon=True)
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="repro-serve-collect",
                                           daemon=True)
        self._dispatcher.start()
        self._collector.start()
        return self

    def _read_manifest(self) -> None:
        manifest = read_manifest(self.artifact_path)
        self.model_name = manifest["model"]["name"]
        self.dtype = manifest["dtype"]
        self.domain_names = list(manifest["domain_names"])
        self._num_domains = int(manifest["model"]["config"].get(
            "num_domains", len(self.domain_names)))
        # Publish the artifact's encoder-backend identity (kind + spec
        # fingerprint) without constructing a backend in the parent; the live
        # counters stay in the workers, but every replica reporting the same
        # fingerprint is the cross-process invariant operators check.
        from repro.encoders.backends import spec_fingerprint

        backend_spec = manifest["encoder_backend"]
        self.stats.set_encoder_backend({
            "kind": backend_spec.get("kind"),
            "fingerprint": spec_fingerprint(backend_spec)})

    def wait_ready(self, timeout_s: float = 30.0) -> bool:
        """Block until every worker has loaded the artifact (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._failed_reason is not None:
                    raise RuntimeError(self._failed_reason)
                if all(slot.ready for slot in self._pool.slots):
                    return True
            time.sleep(0.01)
        return False

    def __enter__(self) -> "Server":
        if self._state == "new":
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self, timeout_s: float = 15.0) -> None:
        """Drain the queue, retire the workers, resolve every ticket."""
        with self._cond:
            if self._state in ("new", "stopped"):
                self._state = "stopped"
                return
            self._stop_requested = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout_s
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout_s)
        with self._lock:
            self._pool.close()  # after any queued jobs: drain, then exit
        # Let the collector resolve in-flight batches (and detect workers that
        # die on the way out) until the queue is empty or time runs out.
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight or not any(
                        slot.alive() for slot in self._pool.slots):
                    break
            time.sleep(0.01)
        self._pool.shutdown(max(deadline - time.monotonic(), 0.1))
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        stranded: list[ServerTicket] = []
        with self._lock:
            stranded.extend(self._pending)
            self._pending.clear()
            for entry in self._inflight.values():
                stranded.extend(entry.tickets)
            self._inflight.clear()
            for outstanding in self._outstanding:
                outstanding.clear()
            self._state = "stopped"
        for ticket in stranded:
            self._resolve(ticket, Prediction.failure(
                "server stopped before this request completed",
                domain=self._domain_name(ticket.domain)), "failed")

    # ------------------------------------------------------------------ #
    # Submission                                                           #
    # ------------------------------------------------------------------ #
    def _domain_name(self, index: int) -> str:
        if 0 <= index < len(self.domain_names):
            return self.domain_names[index]
        return ""

    def _check_serving(self) -> None:
        """Refuse a submission once the server is not running or has failed.

        A failed server's dispatcher has exited, so a ticket queued after the
        failure would wait for :meth:`stop` instead of being answered.
        """
        if self._state != "running" or self._failed_reason is not None:
            reason = self._failed_reason or f"server is {self._state}"
            raise RuntimeError(f"cannot submit: {reason}")

    def submit_ticket(self, text: str, domain=None,
                      deadline_ms: float | None = None) -> ServerTicket:
        """Queue one request; thread-safe.  The fast-rejection tier:

        * structurally invalid requests raise ``ValueError``/``KeyError``
          immediately (counted as ``rejected``);
        * a queue at its high-water mark raises :class:`ServerOverloaded`
          (counted as ``shed``) — callers retry with backoff or downshift.
        """
        self._check_serving()
        problem = text_problem(text, self.config.max_text_chars)
        if problem is not None:
            self.stats.count("rejected")
            raise ValueError(f"invalid request: {problem}")
        try:
            domain_index = resolve_domain(domain, self.domain_names,
                                          self._num_domains, self.default_domain)
        except KeyError:
            self.stats.count("rejected")
            raise
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        if deadline_ms is not None and (
                isinstance(deadline_ms, bool) or not isinstance(deadline_ms, numbers.Real)
                or not deadline_ms > 0):
            self.stats.count("rejected")
            raise ValueError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}")
        deadline = (time.monotonic() + deadline_ms / 1e3
                    if deadline_ms is not None else None)
        with self._cond:
            self._check_serving()  # a failure may have landed since the check
            if self._unresolved >= self.config.queue_high_water:
                self.stats.count("shed")
                raise ServerOverloaded(
                    f"queue depth {self._unresolved} is at the high-water mark "
                    f"{self.config.queue_high_water}; request shed — retry with "
                    "backoff or add workers")
            ticket = ServerTicket(next(self._ticket_ids), text, domain_index,
                                  deadline)
            self._pending.append(ticket)
            self._unresolved += 1
            self.stats.count("submitted")
            self._cond.notify_all()
        return ticket

    async def submit(self, text: str, domain=None,
                     deadline_ms: float | None = None) -> Prediction:
        """Asyncio front-door: queue one request, await its prediction."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        ticket = self.submit_ticket(text, domain=domain, deadline_ms=deadline_ms)

        def deliver(resolved: ServerTicket) -> None:
            def set_result() -> None:
                if not future.done():
                    future.set_result(resolved.prediction)
            loop.call_soon_threadsafe(set_result)

        ticket.add_done_callback(deliver)
        return await future

    async def submit_many(self, texts, domains=None,
                          deadline_ms: float | None = None) -> list[Prediction]:
        """Score a batch of texts concurrently; per-item failures isolate.

        Rejections (invalid input, overload shed) come back as error
        :class:`Prediction`\\ s in their slot instead of failing the whole
        call, so callers can tell exactly which requests to retry.
        """
        texts = list(texts)
        if domains is None or isinstance(domains, (int, str)):
            domain_list = [domains] * len(texts)
        else:
            domain_list = list(domains)
            if len(domain_list) != len(texts):
                raise ValueError(f"{len(domain_list)} domains given for "
                                 f"{len(texts)} texts")

        async def one(text, domain) -> Prediction:
            try:
                return await self.submit(text, domain=domain,
                                         deadline_ms=deadline_ms)
            except (ServerOverloaded, ValueError, KeyError, RuntimeError) as error:
                return Prediction.failure(str(error))

        return list(await asyncio.gather(
            *(one(text, domain) for text, domain in zip(texts, domain_list))))

    def flush(self) -> None:
        """Ask the dispatcher to batch whatever is pending right now."""
        with self._cond:
            self._flush_requested = True
            self._cond.notify_all()

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Flush and wait until the queue is empty; False on timeout."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._unresolved == 0:
                    return True
                if self._failed_reason is not None:
                    return self._unresolved == 0
            self.flush()
            time.sleep(0.005)
        return False

    # ------------------------------------------------------------------ #
    # Dispatcher                                                           #
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            expired: list[ServerTicket] = []
            with self._cond:
                while not (self._stop_requested or self._flush_requested
                           or self._failed_reason is not None):
                    reason, wait_s = flush_decision(
                        self._pending, self.config.max_batch,
                        self.config.max_latency_ms)
                    if reason is not None:
                        break
                    self._cond.wait(wait_s)
                if self._failed_reason is not None:
                    return
                force = self._stop_requested or self._flush_requested
                self._flush_requested = False
                entries = self._take_batches_locked(force, expired)
                stopping = self._stop_requested
            for ticket in expired:
                self._resolve(ticket, Prediction.failure(
                    "deadline expired before the request was dispatched",
                    domain=self._domain_name(ticket.domain)), "expired")
            for entry in entries:
                with self._lock:
                    self._assign_locked(entry)
            if stopping:
                return

    def _take_batches_locked(self, force: bool,
                             expired: list[ServerTicket]) -> list[_Inflight]:
        now = time.monotonic()
        alive: deque[ServerTicket] = deque()
        for ticket in self._pending:
            if ticket.deadline is not None and now >= ticket.deadline:
                expired.append(ticket)
            else:
                alive.append(ticket)
        self._pending = alive
        entries: list[_Inflight] = []
        while True:
            reason, _ = flush_decision(self._pending, self.config.max_batch,
                                       self.config.max_latency_ms, force)
            if reason is None:
                break
            size = min(len(self._pending), self.config.max_batch)
            tickets = [self._pending.popleft() for _ in range(size)]
            deadlines = [t.deadline for t in tickets if t.deadline is not None]
            job = BatchJob(
                batch_id=next(self._batch_ids),
                texts=[t.text for t in tickets],
                domains=[t.domain for t in tickets],
                deadline=min(deadlines) if deadlines else None)
            for ticket in tickets:
                ticket.batch_id = job.batch_id
            entry = _Inflight(job=job, tickets=tickets)
            self._inflight[job.batch_id] = entry
            self.stats.record_flush(reason, size)
            if self.config.record_batches:
                self.batch_records.append({
                    "batch_id": job.batch_id,
                    "texts": list(job.texts),
                    "domains": list(job.domains),
                    "tickets": [t.id for t in tickets],
                })
            entries.append(entry)
        return entries

    def _assign_locked(self, entry: _Inflight) -> None:
        if self._failed_reason is not None:
            return  # _fail_locked already resolved this batch's tickets
        slot = min(range(len(self._outstanding)),
                   key=lambda index: len(self._outstanding[index]))
        entry.slot = slot
        self._outstanding[slot][entry.job.batch_id] = entry
        self._pool.submit(slot, entry.job.batch_id, entry.job)

    # ------------------------------------------------------------------ #
    # Collector / supervisor                                               #
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        while True:
            message = self._pool.receive()
            if message is not None:
                self._handle_message(message)
                continue  # drain bursts before paying for liveness checks
            self._check_liveness()
            if self._collector_stop.is_set():
                return

    def _check_liveness(self) -> None:
        answered = []
        with self._lock:
            if self._state != "running" or self._stop_requested:
                return
            # reap hands over the results sent before a death first; claiming
            # them here keeps the death from re-dispatching answered batches,
            # and respawn plus re-dispatch stay atomic against the dispatcher.
            for event in self._pool.reap():
                if event[0] == "result":
                    answered.append((event, self._claim_locked(event)))
                elif event[0] == "died":
                    self._worker_died_locked(*event[1:])
                else:
                    self._handle_message(event)  # a "fatal" start-up report
        for event, entry in answered:  # resolve tickets outside the lock
            self._deliver(event, entry)

    def _handle_message(self, message) -> None:
        if message[0] == "fatal":
            _, worker_id, reason = message
            self._fail(f"worker {worker_id} cannot start: {reason}")
            return
        with self._lock:
            entry = self._claim_locked(message)
        self._deliver(message, entry)

    def _claim_locked(self, message) -> _Inflight | None:
        """Take the answered batch out of the books (``None`` if stale)."""
        _, worker_id, batch_id = message[:3]
        self._outstanding[worker_id].pop(batch_id, None)
        entry = self._inflight.pop(batch_id, None)
        if entry is not None and entry.slot != worker_id and entry.slot >= 0:
            # resolved by a duplicate dispatch: clear the other copy too
            self._outstanding[entry.slot].pop(batch_id, None)
        return entry

    def _deliver(self, message, entry: _Inflight | None) -> None:
        if entry is None:
            return  # duplicate result from a re-dispatched batch
        status, payload = message[3:5]
        if status == "ok":
            for ticket, row in zip(entry.tickets, payload):
                self._resolve(ticket, Prediction(
                    label=row["label"], label_name=row["label_name"],
                    probability_fake=row["probability_fake"],
                    probabilities=tuple(row["probabilities"]),
                    domain=row["domain"], latency_ms=0.0), "served")
        elif status == "expired":
            for ticket in entry.tickets:
                self._resolve(ticket, Prediction.failure(
                    str(payload), domain=self._domain_name(ticket.domain)),
                    "expired")
        else:
            for ticket in entry.tickets:
                self._resolve(ticket, Prediction.failure(
                    f"worker scoring failed: {payload}",
                    domain=self._domain_name(ticket.domain)), "failed")

    def _resolve(self, ticket: ServerTicket, prediction: Prediction,
                 bucket: str) -> None:
        if ticket._resolve(prediction):
            self.stats.count(bucket)
            with self._lock:
                self._unresolved -= 1

    def _worker_died_locked(self, worker_id: int, exitcode,
                            respawned: bool) -> None:
        self.stats.count("worker_deaths")
        orphaned = list(self._outstanding[worker_id].values())
        self._outstanding[worker_id].clear()
        if not respawned:
            self._fail_locked(
                f"worker {worker_id} died (exit {exitcode}) after the "
                f"restart budget ({self.config.max_restarts}) was spent")
            return
        self.stats.count("worker_restarts")
        for entry in orphaned:
            if entry.job.batch_id in self._inflight:  # not resolved yet
                self.stats.count("redispatched", len(entry.tickets))
                self._assign_locked(entry)

    def _fail(self, reason: str) -> None:
        with self._lock:
            self._fail_locked(reason)

    def _fail_locked(self, reason: str) -> None:
        if self._failed_reason is not None:
            return
        self._failed_reason = f"server failed: {reason}"
        stranded = list(self._pending)
        self._pending.clear()
        for entry in self._inflight.values():
            stranded.extend(entry.tickets)
        self._inflight.clear()
        for outstanding in self._outstanding:
            outstanding.clear()
        self._cond.notify_all()
        # Resolution runs callbacks; do it without re-entering per ticket.
        for ticket in stranded:
            self._resolve(ticket, Prediction.failure(
                self._failed_reason,
                domain=self._domain_name(ticket.domain)), "failed")

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    def worker_pids(self) -> list[int]:
        with self._lock:
            return [slot.pid for slot in self._pool.slots if slot.alive()]

    def health(self) -> dict:
        """Pool liveness + the unified queue ledger (ServeStats)."""
        with self._lock:
            workers = [{
                "id": slot.id,
                "pid": slot.pid,
                "alive": slot.alive(),
                "ready": slot.ready,
                "outstanding_batches": len(self._outstanding[slot.id]),
            } for slot in self._pool.slots]
            alive = sum(1 for w in workers if w["alive"])
            if self._failed_reason is not None:
                status = "failed"
            elif self._state != "running":
                status = self._state
            elif alive == len(workers):
                status = "ok"
            else:
                status = "degraded"
            return {
                "status": status,
                "state": self._state,
                "reason": self._failed_reason,
                "model": self.model_name,
                "dtype": self.dtype,
                "domains": list(self.domain_names),
                "artifact": self.artifact_path,
                "workers": workers,
                "restarts_used": self._pool.restarts_used,
                "pending": len(self._pending),
                "inflight_batches": len(self._inflight),
                "queue": self.stats.snapshot(),
            }
