"""MDFEND baseline (Nan et al., 2021): domain gate over TextCNN experts.

MDFEND encodes news with several TextCNN expert networks and aggregates their
outputs with a *domain gate*: a softmax gate fed by the domain embedding and
the sentence summary.  It is one of the two "clean teachers" used by DTDBD's
domain knowledge distillation.
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import Batch
from repro.models.base import (
    FakeNewsDetector,
    ModelConfig,
    mix_experts,
    plm_sequence,
    pooled_plm,
)
from repro.nn import Dropout, Embedding, ExpertGate, ModuleList, TextCNNEncoder
from repro.tensor import Tensor, fused
from repro.utils import spawn_rngs


class MDFEND(FakeNewsDetector):
    """Multi-domain detector with learnable domain gate over convolutional experts."""

    name = "mdfend"

    def __init__(self, config: ModelConfig):
        super().__init__(config)
        rngs = spawn_rngs(config.seed + 31, config.num_experts + 3)
        self.domain_embedding = Embedding(config.num_domains, config.domain_embedding_dim,
                                          rng=rngs[-1])
        self.experts = ModuleList([
            TextCNNEncoder(config.plm_dim, kernel_sizes=config.kernel_sizes,
                           channels=config.cnn_channels, rng=rngs[i])
            for i in range(config.num_experts)
        ])
        expert_dim = self.experts[0].output_dim
        self.gate = ExpertGate(config.domain_embedding_dim + config.plm_dim,
                               config.num_experts, rng=rngs[-2])
        self.dropout = Dropout(config.dropout, rng=rngs[-3])
        self.classifier = self._build_classifier(expert_dim, rngs[-3])

    @property
    def feature_dim(self) -> int:
        return self.experts[0].output_dim

    def extract_features(self, batch: Batch) -> Tensor:
        sequence = plm_sequence(batch)
        summary = pooled_plm(batch)
        domain_vectors = self.domain_embedding(np.asarray(batch.domains))
        gate_weights = self.gate(Tensor.cat([domain_vectors, summary], axis=1))
        return self.dropout(mix_experts(self._expert_features(sequence), gate_weights))

    def _expert_features(self, sequence: Tensor):
        """The experts' features: one stacked ``(batch, experts, dim)`` node
        on the fused path (the input is unfolded once for all experts), the
        per-expert composed encoders otherwise."""
        if not fused.is_fused_enabled():
            return [expert(sequence) for expert in self.experts]
        return fused.textcnn(
            sequence,
            [[conv.weight for conv in expert.convolutions] for expert in self.experts],
            [[conv.bias for conv in expert.convolutions] for expert in self.experts],
            self.experts[0].kernel_sizes)
