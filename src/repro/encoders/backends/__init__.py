"""Pluggable encoder backends: one client registry behind the ``plm`` channel.

The stock kinds — importable and pre-registered:

* ``local`` — :class:`repro.encoders.FrozenPretrainedEncoder` itself, the
  default: the in-process frozen encoder is a backend, with nothing wrapped
  around it.
* ``cached`` — :class:`CachedBackend`, a content-hash LRU decorator over any
  other backend (hit/miss stats, bounded memory, ``invalidate()``).

Select one per experiment with ``ExperimentConfig.encoder_backend`` (or
``REPRO_ENCODER_BACKEND``), construct from an artifact spec with
:func:`backend_from_spec`, and register new kinds with
:func:`register_encoder_backend`.
"""

from repro.encoders.backends.base import (
    ENCODER_BACKENDS,
    EncoderBackend,
    EncoderBackendError,
    available_encoder_backends,
    backend_from_spec,
    register_encoder_backend,
    spec_fingerprint,
    wrap_encoder,
)
from repro.encoders.backends.cached import CachedBackend

__all__ = [
    "EncoderBackend", "EncoderBackendError", "ENCODER_BACKENDS",
    "register_encoder_backend", "available_encoder_backends",
    "backend_from_spec", "wrap_encoder", "spec_fingerprint",
    "CachedBackend",
]
