"""The cross-entropy loss module."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, functional as F
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Softmax cross-entropy on integer class labels, with optional class weights."""

    def __init__(self, class_weights: np.ndarray | None = None):
        super().__init__()
        self.class_weights = None if class_weights is None else np.asarray(class_weights, float)

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        sample_weights = None
        if self.class_weights is not None:
            sample_weights = self.class_weights[np.asarray(targets, dtype=np.int64)]
        return F.cross_entropy(logits, targets, weights=sample_weights)
