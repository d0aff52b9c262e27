"""Unified serving-queue statistics.

Every queue in the serving tier — the in-process :class:`repro.serve.MicroBatcher`
and the multi-process :class:`repro.serve.Server` — answers the same
operational questions: how much work arrived, how much was served, and where
the rest went (rejected as invalid, shed under overload, expired past its
deadline, failed at scoring).  :class:`ServeStats` is the one ledger both
keep, so ``health()`` endpoints report identical fields whichever queue is
serving.

Accounting contract (every submitted ticket ends in exactly one bucket)::

    submitted = served + failed + expired + stranded(unresolved at shutdown)
    rejected / shed are counted *instead of* submitted (the ticket was never
    accepted into the queue).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


def _flush_reasons() -> dict[str, int]:
    return {"full": 0, "latency": 0, "drain": 0}


@dataclass
class ServeStats:
    """Counters shared by every serving queue; thread-safe via :meth:`lock`."""

    #: tickets accepted into the queue
    submitted: int = 0
    #: tickets resolved with an ok prediction
    served: int = 0
    #: tickets resolved with an error prediction (scoring/worker failure)
    failed: int = 0
    #: submissions refused as structurally invalid (empty text, bad domain)
    rejected: int = 0
    #: submissions refused by backpressure (queue at its high-water mark)
    shed: int = 0
    #: tickets dropped because their deadline passed before scoring
    expired: int = 0
    #: batches scored
    batches: int = 0
    #: why each batch went out: queue full, oldest ticket overdue, or drain
    flush_reasons: dict[str, int] = field(default_factory=_flush_reasons)
    #: worker deaths detected by the supervisor (server only)
    worker_deaths: int = 0
    #: workers (re)spawned after a death (server only)
    worker_restarts: int = 0
    #: tickets re-dispatched because their worker died mid-batch (server only)
    redispatched: int = 0
    #: state of the encoder backend behind the queue (kind, spec fingerprint,
    #: live counters like cache hit rate); ``None`` until the owning queue
    #: first publishes it via :meth:`set_encoder_backend`
    encoder_backend: dict | None = None
    #: ok predictions per served domain name (streaming / onboarding views)
    served_by_domain: dict[str, int] = field(default_factory=dict)
    #: fingerprint of the pipeline artifact currently behind the queue;
    #: ``None`` until first published — changes after a hot reload, which is
    #: how operators confirm a swap actually happened
    artifact_fingerprint: str | None = None

    def __post_init__(self):
        # One queue is driven from several threads (submitters, dispatcher,
        # collector); counter updates go through this lock.  The lock is not
        # part of equality/repr.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def lock(self) -> threading.Lock:
        return self._lock

    @property
    def resolved(self) -> int:
        """Tickets that reached a terminal state."""
        return self.served + self.failed + self.expired

    @property
    def in_queue(self) -> int:
        """Accepted tickets not yet resolved."""
        return self.submitted - self.resolved

    def record_flush(self, reason: str, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1

    def record_outcome(self, ok: bool, count: int = 1) -> None:
        with self._lock:
            if ok:
                self.served += count
            else:
                self.failed += count

    def set_encoder_backend(self, state: dict | None) -> None:
        """Publish the owning queue's encoder-backend state for snapshots."""
        with self._lock:
            self.encoder_backend = dict(state) if state is not None else None

    def record_domain(self, domain: str, count: int = 1) -> None:
        """Count ``count`` ok predictions served for ``domain``."""
        with self._lock:
            self.served_by_domain[domain] = \
                self.served_by_domain.get(domain, 0) + count

    def set_artifact_fingerprint(self, fingerprint: str | None) -> None:
        """Publish the fingerprint of the artifact currently being served."""
        with self._lock:
            self.artifact_fingerprint = fingerprint

    def count(self, field_name: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to one of the integer counters."""
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + amount)

    def snapshot(self) -> dict:
        """A JSON-able copy for ``health()`` endpoints and benchmarks."""
        with self._lock:
            return {
                "submitted": self.submitted,
                "served": self.served,
                "failed": self.failed,
                "rejected": self.rejected,
                "shed": self.shed,
                "expired": self.expired,
                "in_queue": self.in_queue,
                "batches": self.batches,
                "flush_reasons": dict(self.flush_reasons),
                "worker_deaths": self.worker_deaths,
                "worker_restarts": self.worker_restarts,
                "redispatched": self.redispatched,
                "encoder_backend": (dict(self.encoder_backend)
                                    if self.encoder_backend is not None else None),
                "served_by_domain": dict(self.served_by_domain),
                "artifact_fingerprint": self.artifact_fingerprint,
            }
