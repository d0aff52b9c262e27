"""Worker-process side of the serving tier.

The process itself — signal handling, the ``ready``/``fatal`` handshake,
the job loop, orphan detection — is :func:`repro.reliability.pool.worker_loop`.
This module supplies what a *serving* worker adds: :func:`worker_setup`
loads the :class:`repro.serve.Pipeline` artifact exactly once
(:func:`~repro.serve.load_pipeline` verifies its checksums first), builds a
:class:`Predictor` over it, and returns the handler that scores one
:class:`BatchJob` through the fused ``no_grad`` path.

The handler answers ``("ok", rows)`` with one dict per row, or
``("expired", message)`` for a batch whose deadline passed before scoring.
A scoring exception becomes an ``"error"`` result in the pool loop; anything
harsher (``SystemExit`` from an injected ``serve.worker.step`` fault, a
signal, an OOM kill) ends the process, and the server re-dispatches whatever
it held.  Scoring is a pure function of the batch, so re-dispatch is
idempotent: the collector keeps the first result and drops duplicates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class BatchJob:
    """One micro-batch travelling from the dispatcher to a worker."""

    batch_id: int
    texts: list[str]
    domains: list[int]
    #: absolute ``time.monotonic()`` deadline of the *earliest-expiring* row,
    #: or ``None``; CLOCK_MONOTONIC is system-wide on Linux, so the value is
    #: comparable across the server and worker processes.
    deadline: float | None = None


def worker_setup(worker_id: int, artifact_path: str, bucket_size: int | None):
    """Load the artifact in a pool worker; return its batch-scoring handler."""
    from repro.reliability.faults import fault_point
    from repro.serve.pipeline import load_pipeline

    fault_point("serve.worker.start", worker=worker_id)
    predictor = load_pipeline(artifact_path).predictor(bucket_size=bucket_size)

    def score(job: BatchJob):
        if job.deadline is not None and time.monotonic() >= job.deadline:
            return "expired", "deadline expired before the batch was scored"
        # The chaos harness's primary kill site: a rule raising SystemExit
        # here terminates the worker between claiming a batch and scoring it.
        fault_point("serve.worker.step", worker=worker_id,
                    batch=job.batch_id, size=len(job.texts))
        return "ok", [{
            "label": prediction.label,
            "label_name": prediction.label_name,
            "probability_fake": prediction.probability_fake,
            "probabilities": list(prediction.probabilities),
            "domain": prediction.domain,
        } for prediction in predictor.predict(job.texts, domains=job.domains)]

    return score
