"""1-D convolution over token sequences and the TextCNN encoder block.

The paper's student (TextCNN-S / TextCNN-U) and the MDFEND expert networks all
use the classic Kim (2014) TextCNN: several parallel 1-D convolutions with
different kernel sizes, ReLU, and global max-pooling over time, concatenated
into a single feature vector.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, fused, init
from repro.nn.module import Module, ModuleList


class Conv1d(Module):
    """Valid 1-D convolution over the time axis of ``(batch, seq, channels)``.

    Composed from primitives: one window copy per kernel offset, a
    concatenation and a matmul.  Inside :class:`TextCNNEncoder` the fused
    :func:`repro.tensor.fused.textcnn` node replaces this layer and is
    parity-tested against it.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.weight = init.xavier_uniform((kernel_size * in_channels, out_channels), rng=rng)
        self.bias = init.zeros((out_channels,))

    def forward(self, x: Tensor) -> Tensor:
        batch, seq_len, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {channels}")
        if seq_len < self.kernel_size:
            raise ValueError(
                f"sequence length {seq_len} shorter than kernel size {self.kernel_size}")
        out_len = seq_len - self.kernel_size + 1
        windows = [x[:, offset:offset + out_len, :] for offset in range(self.kernel_size)]
        unfolded = Tensor.cat(windows, axis=2)  # (batch, out_len, k * in_channels)
        return unfolded @ self.weight + self.bias


class GlobalMaxPool1d(Module):
    """Max over the time axis of ``(batch, seq, channels)``.

    ``Tensor.max`` splits the gradient of exact ties evenly; the fused
    :func:`repro.tensor.fused.textcnn` node routes it to the first winner.
    """

    def forward(self, x: Tensor) -> Tensor:
        return x.max(axis=1)


class TextCNNEncoder(Module):
    """Parallel multi-kernel convolutional text encoder (Kim, 2014).

    Produces a fixed-size vector of ``len(kernel_sizes) * channels`` features
    from a ``(batch, seq, embed_dim)`` sequence of token representations.
    With fusion enabled the whole encoder is one
    :func:`repro.tensor.fused.textcnn` graph node; with fusion disabled it is
    the composed ``Conv1d`` -> ReLU -> ``GlobalMaxPool1d`` chain per kernel
    plus a concatenation, the ground truth the node is tested against.
    """

    def __init__(self, embed_dim: int, kernel_sizes: tuple[int, ...] = (1, 2, 3, 5),
                 channels: int = 64, rng: np.random.Generator | None = None):
        super().__init__()
        self.kernel_sizes = tuple(kernel_sizes)
        self.channels = channels
        self.convolutions = ModuleList(
            [Conv1d(embed_dim, channels, k, rng=rng) for k in self.kernel_sizes])
        self.pool = GlobalMaxPool1d()

    @property
    def output_dim(self) -> int:
        return len(self.kernel_sizes) * self.channels

    def forward(self, x: Tensor) -> Tensor:
        if fused.is_fused_enabled():
            return fused.textcnn(x, [conv.weight for conv in self.convolutions],
                                 [conv.bias for conv in self.convolutions],
                                 self.kernel_sizes)
        pooled = [self.pool(conv(x).relu()) for conv in self.convolutions]
        return Tensor.cat(pooled, axis=1)
