"""Dynamic micro-batching: amortise many small requests into full batches.

Serving traffic arrives one item at a time, but the engine's throughput comes
from batched GEMMs — a 64-row forward costs far less than 64 one-row
forwards.  :class:`MicroBatcher` sits between the two: requests are
:meth:`~MicroBatcher.submit`\\ ted individually and held in a queue; the queue
is flushed through one batched :meth:`repro.serve.Predictor.predict` call as
soon as ``max_batch`` requests are pending, or as soon as the oldest pending
request has waited ``max_latency_ms`` (checked on every submit), or on
:meth:`~MicroBatcher.drain` — the rule :func:`flush_decision`, which
``repro.serve.Server``'s dispatcher applies to its shared queue too.

The batcher is deliberately synchronous and single-threaded: flushes happen
inside ``submit``/``drain`` on the caller's thread, which keeps results
deterministic and the engine free of locking.  An async front-end (HTTP
server, worker pool) can drive one batcher per event loop; the queue
discipline — and the ≥3x throughput it buys, see
``benchmarks/perf/test_perf_inference.py`` — is the same.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.serve.stats import ServeStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.predictor import Prediction, Predictor


def flush_decision(pending: Sequence, max_batch: int, max_latency_ms: float,
                   force: bool = False) -> tuple[str | None, float | None]:
    """The one flush rule, shared by :class:`MicroBatcher` and ``Server``.

    ``pending`` is the queue, oldest first; each entry carries the
    ``time.perf_counter()`` value it was queued at as ``submitted_at``.
    Returns ``(reason, wait_s)``.  ``reason`` is ``"full"`` once ``max_batch``
    requests are pending, ``"drain"`` when ``force`` asks for whatever is
    pending, ``"latency"`` once the oldest request has waited
    ``max_latency_ms``, and ``None`` otherwise.  ``wait_s`` is the time left
    until the latency flush is due; it is ``None`` when a flush is due now
    or nothing is pending.
    """
    if not pending:
        return None, None
    if len(pending) >= max_batch:
        return "full", None
    if force:
        return "drain", None
    waited_ms = (time.perf_counter() - pending[0].submitted_at) * 1e3
    if waited_ms >= max_latency_ms:
        return "latency", None
    return None, (max_latency_ms - waited_ms) / 1e3


class Ticket:
    """Handle for one queued request; resolved when its batch is flushed."""

    __slots__ = ("text", "domain", "submitted_at", "_result")

    def __init__(self, text: str, domain):
        self.text = text
        self.domain = domain
        self.submitted_at = time.perf_counter()
        self._result: "Prediction | None" = None

    @property
    def done(self) -> bool:
        return self._result is not None

    @property
    def result(self) -> "Prediction":
        """The prediction; raises if the ticket's batch has not flushed yet."""
        if self._result is None:
            raise RuntimeError(
                "ticket is still queued; call MicroBatcher.drain() (or submit "
                "enough requests to fill a batch) before reading results")
        return self._result


class MicroBatcher:
    """Queue single requests, score them in predictor-sized batches."""

    def __init__(self, predictor: "Predictor", max_batch: int = 32,
                 max_latency_ms: float = 10.0):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_latency_ms < 0:
            raise ValueError("max_latency_ms must be non-negative")
        self.predictor = predictor
        self.max_batch = max_batch
        self.max_latency_ms = max_latency_ms
        self._pending: list[Ticket] = []
        #: the unified queue ledger shared with :class:`repro.serve.Server`
        self.stats = ServeStats()

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The queue's ledger plus the predictor's own liveness report."""
        self.stats.set_encoder_backend(self.predictor.backend_state())
        report = self.predictor.health()
        self.stats.set_artifact_fingerprint(report.get("artifact_fingerprint"))
        report["queue"] = self.stats.snapshot()
        return report

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, text: str, domain=None) -> Ticket:
        """Queue one request; may flush the queue (full batch or overdue).

        The text and domain are validated immediately, so a malformed request
        fails in its own ``submit`` call instead of poisoning the batch it
        would later be flushed with.  (Items that *pass* validation but still
        fail at scoring time — e.g. an encoder fault — are isolated per
        ticket by the safe flush path, never raised at an unrelated caller.)
        """
        problem = self.predictor.validate_text(text)
        if problem is not None:
            self.stats.count("rejected")
            raise ValueError(f"invalid request: {problem}")
        try:
            domain = self.predictor._domain_index(domain)
        except KeyError:
            self.stats.count("rejected")
            raise
        # Before queueing: an overdue queue flushes without the new ticket.
        self._flush_if_due()
        ticket = Ticket(text, domain)
        self._pending.append(ticket)
        self.stats.count("submitted")
        self._flush_if_due()
        return ticket

    def drain(self) -> None:
        """Flush whatever is pending (call when the request stream pauses)."""
        self._flush_if_due(force=True)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
            return
        # Exiting on an exception: pending tickets must not be silently lost.
        # Try to flush them; if even that fails, resolve each as an error so
        # every holder of a ticket gets a terminal answer.  The original
        # exception is never suppressed.
        try:
            self.drain()
        except BaseException as drain_error:  # noqa: BLE001 - resolved per ticket
            from repro.serve.predictor import Prediction

            stranded, self._pending = self._pending, []
            message = (f"micro-batcher context exited during "
                       f"{type(exc).__name__} and the final drain failed: "
                       f"{drain_error}")
            for ticket in stranded:
                ticket._result = Prediction.failure(message)
                self.stats.count("failed")

    # ------------------------------------------------------------------ #
    def _flush_if_due(self, force: bool = False) -> None:
        reason, _ = flush_decision(self._pending, self.max_batch,
                                   self.max_latency_ms, force)
        if reason is not None:
            self._flush(reason)

    def _flush(self, reason: str) -> None:
        from repro.reliability.faults import fault_point

        batch, self._pending = self._pending, []
        try:
            fault_point("serve.flush", size=len(batch), reason=reason)
            predictions = self.predictor.predict_safe(
                [ticket.text for ticket in batch],
                domains=[ticket.domain for ticket in batch])
        except BaseException:
            # Systemic failure (every item fails alone too, or the flush was
            # interrupted): put the batch back so no ticket is ever lost.
            self._pending = batch + self._pending
            raise
        finished = time.perf_counter()
        for ticket, prediction in zip(batch, predictions):
            prediction.latency_ms = (finished - ticket.submitted_at) * 1e3
            ticket._result = prediction
            self.stats.record_outcome(prediction.error is None)
            if prediction.error is None:
                self.stats.record_domain(prediction.domain)
        self.stats.record_flush(reason, len(batch))
