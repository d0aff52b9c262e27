"""The :class:`EncoderBackend` interface and the backend kind registry.

The paper's student and every baseline consume a frozen PLM ("frozen BERT,
layer 11") purely as an *input feature channel*: token ids go in, a frozen
``(batch, seq, dim)`` activation comes out.  Nothing downstream cares where
that activation was computed — the in-process stand-in or a memoising cache
over it are interchangeable as long as they answer ``encode``
deterministically for the same window.

:class:`EncoderBackend` is that contract, in the style of a client registry:

* ``encode(token_ids, mask)`` — the frozen features of one token-id window;
* ``to_spec()`` / ``from_spec(spec)`` — a JSON round-trip through the kind
  registry, so a pipeline artifact can persist *which backend, configured
  how* and any process can reconstruct it (``backend_from_spec``);
* ``fingerprint()`` — a stable content hash of the spec, surfaced by
  ``Predictor.health()`` and the serving ``/stats`` endpoint so operators can
  tell at a glance which encoder configuration a replica is running;
* ``stats()`` / ``invalidate()`` — operational hooks (cache hit rates,
  streaming-refresh invalidation) that default to no-ops.

Register new kinds with :func:`register_encoder_backend`; the stock kinds are
``local`` (:class:`repro.encoders.FrozenPretrainedEncoder` itself) and
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
    implement :meth:`encode` plus the spec round-trip.
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


def wrap_encoder(kind: str, encoder) -> EncoderBackend:
    """Serve a :class:`FrozenPretrainedEncoder` through the backend ``kind``.

    The construction path :func:`repro.experiments.prepare_data` uses, so
    experiment configs select a backend by name.  ``"local"`` is the
    encoder itself, returned as it is; every other stock backend stands
    itself up over it (``from_encoder``).
    """
    backend_cls = ENCODER_BACKENDS.get(kind)
    if backend_cls is None:
        raise EncoderBackendError(
            f"unknown encoder backend kind '{kind}'; registered kinds: "
            f"{list(available_encoder_backends())}")
    if isinstance(encoder, backend_cls):
        return encoder
    factory = getattr(backend_cls, "from_encoder", None)
    if factory is None:
        raise EncoderBackendError(
            f"encoder backend '{kind}' cannot be built from a local encoder "
            "(no from_encoder constructor); build it explicitly and pass it "
            "through the channel registry instead")
    return factory(encoder)
