"""Pluggable encoder backends: one client registry behind the ``plm`` channel.

The stock kinds — importable and pre-registered:

* ``local`` — :class:`LocalBackend`, the default; delegates to the in-process
  :class:`repro.encoders.FrozenPretrainedEncoder` bit-identically.
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
from repro.encoders.backends.local import LocalBackend

__all__ = [
    "EncoderBackend", "EncoderBackendError", "ENCODER_BACKENDS",
    "register_encoder_backend", "available_encoder_backends",
    "backend_from_spec", "wrap_encoder", "spec_fingerprint",
    "LocalBackend", "CachedBackend",
]


def as_backend(encoder) -> EncoderBackend:
    """Normalise ``encoder`` to a backend: raw frozen encoders become ``local``.

    The adapter every refactored entry point (``Pipeline``, ``DataBundle``,
    the ``plm`` channel) uses so existing call sites passing a bare
    :class:`FrozenPretrainedEncoder` keep working unchanged.
    """
    if isinstance(encoder, EncoderBackend):
        return encoder
    from repro.encoders.pretrained import FrozenPretrainedEncoder

    if isinstance(encoder, FrozenPretrainedEncoder):
        return LocalBackend(encoder)
    raise EncoderBackendError(
        f"expected an EncoderBackend or FrozenPretrainedEncoder, got "
        f"{type(encoder).__name__}")
