"""The ``local`` backend: a zero-overhead wrap of the in-process frozen encoder.

This is the default backend everywhere — every call delegates straight to the
wrapped :class:`repro.encoders.FrozenPretrainedEncoder`, so training tables,
pipeline artifacts and serving probabilities are bit-for-bit what they were
before the registry existed (pinned by ``tests/encoders/test_backends.py``).
"""

from __future__ import annotations

import numpy as np

from repro.encoders.backends.base import EncoderBackend, register_encoder_backend
from repro.encoders.pretrained import FrozenPretrainedEncoder


class LocalBackend(EncoderBackend):
    """Serve :meth:`encode` directly from an in-process frozen encoder."""

    kind = "local"

    def __init__(self, encoder: FrozenPretrainedEncoder):
        self.encoder = encoder

    # ------------------------------------------------------------------ #
    @property
    def vocab_size(self) -> int:
        return self.encoder.vocab_size

    @property
    def output_dim(self) -> int:
        return self.encoder.output_dim

    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        return self.encoder.encode(token_ids, mask)

    def encode_pooled(self, token_ids: np.ndarray,
                      mask: np.ndarray | None = None) -> np.ndarray:
        return self.encoder.encode_pooled(token_ids, mask)

    # ------------------------------------------------------------------ #
    def to_spec(self) -> dict:
        return {"kind": self.kind, "encoder": self.encoder.to_spec()}

    @classmethod
    def from_spec(cls, spec: dict) -> "LocalBackend":
        return cls(FrozenPretrainedEncoder.from_spec(spec["encoder"]))

    @classmethod
    def from_encoder(cls, encoder: FrozenPretrainedEncoder) -> "LocalBackend":
        return cls(encoder)


register_encoder_backend("local", LocalBackend)
