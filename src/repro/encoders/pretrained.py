"""Frozen pre-trained encoder stand-in.

The paper freezes a BERT / RoBERTa encoder and feeds the activation of layer 11
to the student (TextCNN-S) and to several baselines.  Pre-trained language
models are unavailable offline, so :class:`FrozenPretrainedEncoder` provides a
deterministic, frozen token encoder with the same interface and the same role:

* every vocabulary id gets a fixed dense embedding derived from a hashed random
  projection (stable across runs for a given seed and vocabulary size);
* sinusoidal position encodings are added;
* a fixed two-layer random mixing network with a local context average gives
  each position a mildly contextual representation.

Nothing here is trainable — exactly like the frozen PLM in the paper — so the
encoder output can be treated as an input feature channel and precomputed once
per dataset by the :class:`repro.data.DataLoader`.  The encoder is itself the
``local`` :class:`~repro.encoders.backends.EncoderBackend`: pipelines, loaders
and the ``plm`` channel take it as it is.
"""

from __future__ import annotations

import numpy as np

from repro.encoders.backends.base import EncoderBackend, register_encoder_backend


class FrozenPretrainedEncoder(EncoderBackend):
    """Deterministic frozen token encoder emulating "frozen BERT, layer 11"."""

    kind = "local"
    # Plain attributes set in __init__; these class-level values override the
    # base class's abstract properties.
    vocab_size = output_dim = None

    def __init__(self, vocab_size: int, output_dim: int = 48, hidden_dim: int = 64,
                 context_window: int = 0, positional_scale: float = 0.2, seed: int = 1234):
        if vocab_size < 2:
            raise ValueError("vocab_size must be at least 2 (pad + unk)")
        if output_dim < 1 or hidden_dim < 1:
            raise ValueError("dimensions must be positive")
        self.vocab_size = vocab_size
        self.output_dim = output_dim
        self.hidden_dim = hidden_dim
        self.context_window = context_window
        self.positional_scale = positional_scale
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Unit-variance token embeddings: token identity must stay the dominant
        # part of the representation (the positional signal is scaled down).
        self._embeddings = rng.standard_normal((vocab_size, output_dim))
        self._embeddings[0] = 0.0  # padding id stays zero
        self._mix_in = rng.standard_normal((output_dim, hidden_dim)) / np.sqrt(output_dim)
        self._mix_out = rng.standard_normal((hidden_dim, output_dim)) / np.sqrt(hidden_dim)
        #: scaled positional table per sequence length, built on first use
        self._positional: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _positional_encoding(length: int, dim: int) -> np.ndarray:
        positions = np.arange(length)[:, None]
        dims = np.arange(dim)[None, :]
        angles = positions / np.power(10000.0, (2 * (dims // 2)) / dim)
        encoding = np.zeros((length, dim))
        encoding[:, 0::2] = np.sin(angles[:, 0::2])
        encoding[:, 1::2] = np.cos(angles[:, 1::2])
        return encoding

    def _scaled_positional(self, length: int) -> np.ndarray:
        """``positional_scale`` times the ``(1, length, output_dim)`` table."""
        table = self._positional.get(length)
        if table is None:
            table = self.positional_scale * self._positional_encoding(
                length, self.output_dim)[None]
            table.flags.writeable = False
            self._positional[length] = table
        return table

    def _contextualise(self, token_states: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Average each position with its ``context_window`` neighbours."""
        if self.context_window <= 0:
            return token_states
        batch, length, dim = token_states.shape
        accumulated = np.zeros_like(token_states)
        weights = np.zeros((batch, length, 1))
        for offset in range(-self.context_window, self.context_window + 1):
            shifted = np.zeros_like(token_states)
            shifted_mask = np.zeros((batch, length, 1))
            source = slice(max(0, -offset), length - max(0, offset))
            target = slice(max(0, offset), length - max(0, -offset))
            shifted[:, target] = token_states[:, source]
            shifted_mask[:, target, 0] = mask[:, source]
            accumulated += shifted * shifted_mask
            weights += shifted_mask
        return accumulated / np.maximum(weights, 1.0)

    # ------------------------------------------------------------------ #
    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Return frozen features ``(batch, seq, output_dim)`` for ``token_ids``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, seq)")
        if np.any(token_ids < 0) or np.any(token_ids >= self.vocab_size):
            raise ValueError("token id outside the encoder's vocabulary")
        if mask is None:
            mask = (token_ids != 0).astype(np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != token_ids.shape:
            # A mismatched mask would otherwise broadcast silently against the
            # token states (wrong features, no error) or surface as a raw
            # numpy shape error deep inside _contextualise.
            raise ValueError(
                f"mask shape {mask.shape} does not match token_ids shape "
                f"{token_ids.shape}")

        states = self._embeddings[token_ids]
        states = states + self._scaled_positional(token_ids.shape[1])
        states = states * mask[..., None]
        states = self._contextualise(states, mask)
        hidden = np.tanh(states @ self._mix_in)
        output = np.tanh(hidden @ self._mix_out) + states  # residual connection
        return output * mask[..., None]

    # ------------------------------------------------------------------ #
    def to_spec(self) -> dict:
        """JSON-serialisable description; :meth:`from_spec` is its exact inverse.

        Every weight in this encoder is a deterministic function of the
        constructor arguments (hashed random projections from ``seed``), so
        persisting the arguments reconstructs bit-identical features — no
        weight arrays need to ship with a pipeline artifact.
        """
        return {"kind": self.kind, "encoder": {
            "vocab_size": self.vocab_size,
            "output_dim": self.output_dim,
            "hidden_dim": self.hidden_dim,
            "context_window": self.context_window,
            "positional_scale": self.positional_scale,
            "seed": self.seed,
        }}

    @classmethod
    def from_spec(cls, spec: dict) -> "FrozenPretrainedEncoder":
        return cls(**spec["encoder"])


register_encoder_backend("local", FrozenPretrainedEncoder)
