"""The :class:`EncoderBackend` interface and the backend kind registry.

The paper's student and every baseline consume a frozen PLM ("frozen BERT,
layer 11") purely as an *input feature channel*: token ids go in, a frozen
``(batch, seq, dim)`` activation comes out.  Nothing downstream cares where
that activation was computed — an in-process stand-in, a memoising cache, or
a remote embedding service are all interchangeable as long as they answer
``encode``/``encode_pooled`` deterministically for the same window.

:class:`EncoderBackend` is that contract, in the style of a client registry:

* ``encode(token_ids, mask)`` / ``encode_pooled(token_ids, mask)`` — the two
  call shapes :class:`repro.encoders.FrozenPretrainedEncoder` already serves;
* ``to_spec()`` / ``from_spec(spec)`` — a JSON round-trip through the kind
  registry, so a pipeline artifact can persist *which backend, configured
  how* and any process can reconstruct it (``backend_from_spec``);
* ``fingerprint()`` — a stable content hash of the spec, surfaced by
  ``Predictor.health()`` and the serving ``/stats`` endpoint so operators can
  tell at a glance which encoder configuration a replica is running;
* ``stats()`` / ``invalidate()`` — operational hooks (cache hit rates,
  streaming-refresh invalidation) that default to no-ops.

Register new kinds with :func:`register_encoder_backend`; the stock kinds are
``local`` (:class:`~repro.encoders.backends.local.LocalBackend`) and
``cached`` (:class:`~repro.encoders.backends.cached.CachedBackend`).
"""

from __future__ import annotations

import abc
import hashlib
import json

import numpy as np


class EncoderBackendError(RuntimeError):
    """A backend spec is malformed, unknown, or the backend cannot serve."""


def spec_fingerprint(spec: dict) -> str:
    """Stable 16-hex-digit content hash of a backend (or channel) spec.

    Computable from a manifest alone — no backend needs to be constructed —
    so the multi-process server can report the same fingerprint its workers'
    live backends report.
    """
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class EncoderBackend(abc.ABC):
    """A pluggable feature-extraction service behind the ``plm`` channel.

    Subclasses set the class attribute ``kind`` (their registry key) and
    implement :meth:`encode` plus the spec round-trip.  The default
    :meth:`encode_pooled` reproduces the masked mean-pool of
    :class:`repro.encoders.FrozenPretrainedEncoder` bit-for-bit (identical
    operations in identical order), so most backends only implement
    :meth:`encode`.
    """

    #: registry key; subclasses must override
    kind: str = ""

    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def vocab_size(self) -> int:
        """Largest servable token id + 1 (pipelines check it against the vocab)."""

    @property
    @abc.abstractmethod
    def output_dim(self) -> int:
        """Feature dimension of the returned states."""

    @abc.abstractmethod
    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Frozen features ``(batch, seq, output_dim)`` for a token-id window."""

    def encode_pooled(self, token_ids: np.ndarray,
                      mask: np.ndarray | None = None) -> np.ndarray:
        """Masked mean-pooled sentence representation ``(batch, output_dim)``.

        Same operations in the same order as
        :meth:`FrozenPretrainedEncoder.encode_pooled`, so any backend whose
        :meth:`encode` is bit-identical to the frozen encoder pools
        bit-identically too.
        """
        if mask is None:
            mask = (np.asarray(token_ids) != 0).astype(np.float64)
        states = self.encode(token_ids, mask)
        counts = np.maximum(np.asarray(mask).sum(axis=1, keepdims=True), 1.0)
        return states.sum(axis=1) / counts

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def to_spec(self) -> dict:
        """JSON-serialisable description; must include ``{"kind": self.kind}``."""

    @classmethod
    @abc.abstractmethod
    def from_spec(cls, spec: dict) -> "EncoderBackend":
        """Reconstruct a backend from :meth:`to_spec` output (exact inverse)."""

    def fingerprint(self) -> str:
        """Stable 16-hex-digit content hash of this backend's spec.

        Two backends with byte-identical specs produce the same fingerprint
        in any process, so health endpoints can compare replicas without
        shipping the full spec.
        """
        return spec_fingerprint(self.to_spec())

    # ------------------------------------------------------------------ #
    # Operational hooks (no-ops by default)                                #
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Backend-specific operational counters (cache hits, RPC rounds...)."""
        return {}

    def invalidate(self) -> None:
        """Drop any memoised state (the streaming-refresh hook)."""

    def state(self) -> dict:
        """The health-endpoint view: kind, fingerprint and live counters."""
        return {"kind": self.kind, "fingerprint": self.fingerprint(),
                **self.stats()}


# --------------------------------------------------------------------------- #
# Kind registry                                                                #
# --------------------------------------------------------------------------- #
ENCODER_BACKENDS: dict[str, type[EncoderBackend]] = {}


def register_encoder_backend(kind: str, backend_cls: type[EncoderBackend],
                             overwrite: bool = False) -> None:
    """Register ``backend_cls`` under ``kind`` for spec-based reconstruction.

    Like :func:`repro.models.register_model`: a process that registers the
    same kind before calling :func:`backend_from_spec` (or
    ``repro.serve.load_pipeline``) round-trips custom backends through
    pipeline artifacts.
    """
    if not kind:
        raise ValueError("backend kind must be a non-empty string")
    if not overwrite and kind in ENCODER_BACKENDS:
        raise ValueError(f"encoder backend kind '{kind}' is already registered "
                         "(pass overwrite=True to replace it)")
    ENCODER_BACKENDS[kind] = backend_cls


def available_encoder_backends() -> tuple[str, ...]:
    """Registered backend kinds, sorted."""
    return tuple(sorted(ENCODER_BACKENDS))


def backend_from_spec(spec: dict) -> EncoderBackend:
    """Reconstruct any registered backend from its :meth:`~EncoderBackend.to_spec`."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise EncoderBackendError(
            f"encoder backend spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    backend_cls = ENCODER_BACKENDS.get(kind)
    if backend_cls is None:
        raise EncoderBackendError(
            f"unknown encoder backend kind '{kind}'; registered kinds: "
            f"{list(available_encoder_backends())}. Custom backends must call "
            "repro.encoders.backends.register_encoder_backend first")
    return backend_cls.from_spec(spec)


def wrap_encoder(kind: str, encoder, **options) -> EncoderBackend:
    """Wrap a :class:`FrozenPretrainedEncoder` in the backend ``kind``.

    The construction path :func:`repro.experiments.prepare_data` uses:
    every stock backend knows how to stand itself up over an in-process
    frozen encoder (``from_encoder``), so experiment configs select a
    backend by name plus keyword options.
    """
    backend_cls = ENCODER_BACKENDS.get(kind)
    if backend_cls is None:
        raise EncoderBackendError(
            f"unknown encoder backend kind '{kind}'; registered kinds: "
            f"{list(available_encoder_backends())}")
    factory = getattr(backend_cls, "from_encoder", None)
    if factory is None:
        raise EncoderBackendError(
            f"encoder backend '{kind}' cannot be built from a local encoder "
            "(no from_encoder constructor); build it explicitly and pass it "
            "through the channel registry instead")
    return factory(encoder, **options)
