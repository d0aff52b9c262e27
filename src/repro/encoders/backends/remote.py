"""The ``remote`` backend: an embedding-service client shape, in-process.

A real deployment would put the frozen PLM behind an embedding service; this
backend is the *client* for that world, with every client-side concern
implemented for real and only the wire swapped out:

* **Transport** — :class:`EncoderTransport` is the one-method wire interface
  (``request(token_ids, mask) -> states``).  :class:`InProcessTransport`
  "serves" requests from a local :class:`FrozenPretrainedEncoder`, raising
  :class:`TransportError` on injected faults (the ``encoder.transport`` fault
  site), so chaos tests exercise exactly the failure surface a socket would.
* **Request batching** — windows wider than ``max_rows_per_request`` are
  split into row chunks, one RPC each.  The frozen encoder contextualises
  each row independently (stacked per-row GEMMs, per-row context averaging),
  so chunked results are bit-identical to the unchunked call — pinned by
  ``tests/encoders/test_backends.py``.
* **Coalescing** — duplicate rows inside a window (retried texts, hot
  stories, donor-substituted rows from ``predict_safe``) are sent once and
  scattered back to every duplicate position.
* **Degradation** — every RPC runs through a
  :class:`repro.reliability.RetryPolicy` (transient :class:`TransportError`
  costs a backoff, not a failure) and a
  :class:`repro.reliability.CircuitBreaker` (a *persistently* dead service
  trips to fast :class:`~repro.reliability.CircuitOpen` rejections) — the
  same two mechanisms, in the same order, that ``repro.serve`` already wraps
  around direct encoder calls, so a dying transport degrades exactly like a
  dying encoder does today.

``to_spec`` persists the service's encoder spec plus the client knobs, and
``from_spec`` reconstructs the client over an in-process transport — which is
also why a *pipeline artifact* exported against a remote backend loads
anywhere: the dummy transport regenerates the same deterministic weights.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.encoders.backends.base import (
    EncoderBackend,
    EncoderBackendError,
    register_encoder_backend,
)
from repro.encoders.pretrained import FrozenPretrainedEncoder
from repro.reliability.circuit import CircuitBreaker
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy


class TransportError(ConnectionError):
    """The encoder service did not answer (transient unless it persists).

    Subclasses :class:`ConnectionError` (hence :class:`OSError`) so the stock
    :class:`RetryPolicy` retries it without special configuration.
    """


class EncoderTransport:
    """Wire interface of an embedding service: one request, one response."""

    def request(self, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        """Transport identity for specs/diagnostics."""
        return {"transport": type(self).__name__}


class InProcessTransport(EncoderTransport):
    """A dummy transport answering from a local frozen encoder.

    The ``encoder.transport`` fault site fires on every request, so a
    :class:`repro.reliability.FaultPlan` rule can drop or stall "the wire"
    deterministically without any real networking.
    """

    def __init__(self, encoder: FrozenPretrainedEncoder):
        self.encoder = encoder
        self.requests = 0

    def request(self, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self.requests += 1
        fault_point("encoder.transport", rows=int(np.asarray(token_ids).shape[0]))
        return self.encoder.encode(token_ids, mask)

    def describe(self) -> dict:
        return {"transport": "in_process", "encoder": self.encoder.to_spec()}


class RemoteBackend(EncoderBackend):
    """Batching, coalescing, retrying, circuit-broken encoder-service client."""

    kind = "remote"

    def __init__(self, transport: EncoderTransport, *, vocab_size: int,
                 output_dim: int, max_rows_per_request: int = 64,
                 coalesce: bool = True, retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None):
        if max_rows_per_request < 1:
            raise ValueError("max_rows_per_request must be >= 1")
        self.transport = transport
        self._vocab_size = vocab_size
        self._output_dim = output_dim
        self.max_rows_per_request = max_rows_per_request
        self.coalesce = coalesce
        self.retry = retry or RetryPolicy(attempts=3, base_delay_s=0.01,
                                          max_delay_s=0.1)
        self.breaker = breaker or CircuitBreaker(name="encoder-transport")
        # breaker outermost, like the serving tier wraps encoder calls: one
        # exhausted retry round counts as ONE dependency failure.
        self._call = self.breaker.wrap(self.retry.wrap(self.transport.request))
        self._lock = threading.Lock()
        self.requests = 0
        self.rows_sent = 0
        self.rows_coalesced = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def in_process(cls, encoder: FrozenPretrainedEncoder,
                   **options) -> "RemoteBackend":
        """A client over a dummy in-process transport serving ``encoder``."""
        return cls(InProcessTransport(encoder), vocab_size=encoder.vocab_size,
                   output_dim=encoder.output_dim, **options)

    from_encoder = in_process

    # ------------------------------------------------------------------ #
    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    @property
    def output_dim(self) -> int:
        return self._output_dim

    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, seq)")
        if mask is None:
            mask = (token_ids != 0).astype(np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != token_ids.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match token_ids shape "
                f"{token_ids.shape}")
        rows, unique_index = self._coalesce(token_ids, mask)
        unique_ids = token_ids[rows]
        unique_mask = mask[rows]
        chunks = []
        for start in range(0, len(rows), self.max_rows_per_request):
            stop = start + self.max_rows_per_request
            chunks.append(self._call(unique_ids[start:stop], unique_mask[start:stop]))
            with self._lock:
                self.requests += 1
                self.rows_sent += int(min(stop, len(rows)) - start)
        unique_states = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)
        return unique_states[unique_index]

    def _coalesce(self, token_ids: np.ndarray,
                  mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of unique rows + the scatter map back to the full window."""
        if not self.coalesce or token_ids.shape[0] < 2:
            identity = np.arange(token_ids.shape[0])
            return identity, identity
        seen: dict[bytes, int] = {}
        rows: list[int] = []
        unique_index = np.empty(token_ids.shape[0], dtype=np.int64)
        for row in range(token_ids.shape[0]):
            key = token_ids[row].tobytes() + mask[row].tobytes()
            position = seen.get(key)
            if position is None:
                position = len(rows)
                seen[key] = position
                rows.append(row)
            else:
                with self._lock:
                    self.rows_coalesced += 1
            unique_index[row] = position
        return np.asarray(rows, dtype=np.int64), unique_index

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "rows_sent": self.rows_sent,
                "rows_coalesced": self.rows_coalesced,
                "circuit": self.breaker.snapshot()["state"],
                "circuit_failures": self.breaker.failures,
            }

    # ------------------------------------------------------------------ #
    def to_spec(self) -> dict:
        described = self.transport.describe()
        if "encoder" not in described:
            raise EncoderBackendError(
                f"transport {described.get('transport')} does not describe an "
                "encoder spec; this remote backend cannot be persisted")
        return {"kind": self.kind, "encoder": described["encoder"],
                "max_rows_per_request": self.max_rows_per_request,
                "coalesce": self.coalesce}

    @classmethod
    def from_spec(cls, spec: dict) -> "RemoteBackend":
        return cls.in_process(
            FrozenPretrainedEncoder.from_spec(spec["encoder"]),
            max_rows_per_request=spec.get("max_rows_per_request", 64),
            coalesce=spec.get("coalesce", True))


register_encoder_backend("remote", RemoteBackend)
