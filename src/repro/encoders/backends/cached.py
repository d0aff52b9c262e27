"""The ``cached`` backend: a content-hash LRU memo over token-id windows.

Frozen-encoder output is a pure function of ``(token_ids, mask)``, and real
serving traffic repeats itself — health probes, trending stories, the
benchmark suite's fixed windows, :class:`repro.core.distill.TeacherCache`
style precompute passes.  :class:`CachedBackend` decorates *any* other
backend with an exact-match cache:

* the key is a BLAKE2b content hash of the window's raw bytes (token ids,
  mask and both shapes), so two windows collide only if they are
  byte-identical — in which case the frozen encoder's answer is identical
  too, making a hit bit-exact by construction;
* entries are LRU-evicted past ``max_entries`` *or* ``max_bytes`` of stored
  feature arrays, so a long-running server's memory stays bounded;
* :meth:`stats` reports hits / misses / evictions / resident bytes (surfaced
  by ``Predictor.health()`` and the ``/stats`` endpoint);
* :meth:`invalidate` drops everything — the hook the streaming/continual
  -learning roadmap item needs when fresh labels retrain the upstream
  encoder (mirrors ``TeacherCache.invalidate``).

Cached arrays are handed out with ``writeable=False``: every consumer treats
feature channels as read-only, and the flag turns an accidental in-place
mutation (which would silently poison later hits) into an immediate error.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.encoders.backends.base import (
    EncoderBackend,
    backend_from_spec,
    register_encoder_backend,
)


def _window_key(token_ids: np.ndarray, mask: np.ndarray | None) -> bytes:
    """Content hash of one encode window (shape-aware, collision-safe)."""
    digest = hashlib.blake2b(digest_size=16)
    token_ids = np.ascontiguousarray(token_ids)
    digest.update(repr(token_ids.shape).encode())
    digest.update(token_ids.tobytes())
    if mask is not None:
        mask = np.ascontiguousarray(mask)
        digest.update(repr(mask.shape).encode())
        digest.update(mask.tobytes())
    return digest.digest()


class CachedBackend(EncoderBackend):
    """Memoise another backend's :meth:`encode` per token-id window.

    Parameters
    ----------
    inner:
        The backend doing the actual encoding on a miss.
    max_entries:
        LRU capacity in windows.
    max_bytes:
        LRU capacity in stored feature bytes (evaluated after every insert;
        both bounds apply, whichever bites first).
    """

    kind = "cached"

    def __init__(self, inner: EncoderBackend, max_entries: int = 1024,
                 max_bytes: int = 256 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.inner = inner
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lru: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ #
    @property
    def vocab_size(self) -> int:
        return self.inner.vocab_size

    @property
    def output_dim(self) -> int:
        return self.inner.output_dim

    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        key = _window_key(token_ids, mask)
        with self._lock:
            cached = self._lru.get(key)
            if cached is not None:
                self._lru.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        states = self.inner.encode(token_ids, mask)
        states.setflags(write=False)
        with self._lock:
            if key not in self._lru:
                self._lru[key] = states
                self._bytes += states.nbytes
                self._evict_locked()
        return states

    def _evict_locked(self) -> None:
        while self._lru and (len(self._lru) > self.max_entries
                             or self._bytes > self.max_bytes):
            if len(self._lru) == 1 and len(self._lru) <= self.max_entries:
                break  # a single over-budget window still has to be servable
            _, evicted = self._lru.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop every cached window (and the inner backend's state too)."""
        with self._lock:
            self._lru.clear()
            self._bytes = 0
            self.invalidations += 1
        self.inner.invalidate()

    def stats(self) -> dict:
        with self._lock:
            requests = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / requests if requests else 0.0,
                "entries": len(self._lru),
                "resident_bytes": self._bytes,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                **{f"inner_{k}": v for k, v in self.inner.stats().items()},
            }

    # ------------------------------------------------------------------ #
    def to_spec(self) -> dict:
        return {"kind": self.kind, "inner": self.inner.to_spec(),
                "max_entries": self.max_entries, "max_bytes": self.max_bytes}

    @classmethod
    def from_spec(cls, spec: dict) -> "CachedBackend":
        return cls(backend_from_spec(spec["inner"]),
                   max_entries=spec.get("max_entries", 1024),
                   max_bytes=spec.get("max_bytes", 256 * 1024 * 1024))

    @classmethod
    def from_encoder(cls, encoder, **options) -> "CachedBackend":
        return cls(encoder, **options)


register_encoder_backend("cached", CachedBackend)
