"""Domain adversarial training (DAT) and the paper's DAT-IE variant.

The unbiased teacher of DTDBD shares the student's architecture and is trained
with domain adversarial training plus an information-entropy term (Eq. 10–11):

``L_DAT-IE = CE(G_y(f), y) + alpha * CE(G_d(f), d) + beta * L_IE``

with ``beta = 0.2 * alpha`` and the domain classifier ``G_d`` connected through
a gradient-reversal layer.  The information-entropy loss pushes the domain
classifier's output towards high entropy, so the encoder keeps features shared
by *several* relevant domains instead of collapsing onto the single most
related one (the "shortcut" the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.callbacks import TrainingHistory
from repro.core.trainer import Trainer, TrainerConfig
from repro.data.loader import Batch, DataLoader
from repro.models.base import FakeNewsDetector
from repro.nn import GradientReversal, MLP, Module
from repro.tensor import Tensor, functional as F
from repro.utils import seeded_rng


@dataclass
class DATConfig:
    """Hyper-parameters of (information-entropy) domain adversarial training."""

    alpha: float = 1.0
    #: weight of the information-entropy loss; the paper fixes beta = 0.2 * alpha
    beta_ratio: float = 0.2
    use_information_entropy: bool = True
    grl_coefficient: float = 1.0
    epochs: int = 10
    learning_rate: float = 2e-3
    max_grad_norm: float = 5.0
    verbose: bool = False

    @property
    def beta(self) -> float:
        return self.beta_ratio * self.alpha


class DomainAdversarialModel(Module):
    """Wraps a detector with a gradient-reversed domain classifier head.

    The wrapped detector keeps its own label classifier (``G_y``); this wrapper
    adds ``G_d`` behind a gradient-reversal layer and computes the DAT / DAT-IE
    objective.  After training, the *backbone* is the unbiased teacher used by
    the adversarial de-biasing distillation.
    """

    def __init__(self, backbone: FakeNewsDetector, num_domains: int,
                 config: DATConfig | None = None, hidden_dim: int = 48, seed: int = 0):
        super().__init__()
        self.backbone = backbone
        self.dat_config = config or DATConfig()
        self.gradient_reversal = GradientReversal(self.dat_config.grl_coefficient)
        self.domain_classifier = MLP([backbone.feature_dim, hidden_dim], num_domains,
                                     dropout=0.2, rng=seeded_rng(seed + 811))

    # Delegation so the wrapper can be evaluated like a plain detector.
    @property
    def name(self) -> str:
        return f"{self.backbone.name}+dat"

    @property
    def feature_dim(self) -> int:
        return self.backbone.feature_dim

    def extract_features(self, batch: Batch) -> Tensor:
        return self.backbone.extract_features(batch)

    def forward(self, batch: Batch) -> Tensor:
        return self.backbone(batch)

    def predict(self, batch: Batch) -> np.ndarray:
        return self.backbone.predict(batch)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        return self.backbone.predict_proba(batch)

    def domain_probabilities(self, features: Tensor) -> Tensor:
        reversed_features = self.gradient_reversal(features)
        return F.softmax(self.domain_classifier(reversed_features), axis=-1)

    def compute_loss(self, batch: Batch) -> tuple[Tensor, Tensor]:
        """DAT / DAT-IE objective of Eq. 11."""
        features = self.backbone.extract_features(batch)
        logits = self.backbone.classify(features)
        label_loss = F.cross_entropy(logits, batch.labels)
        domain_probs = self.domain_probabilities(features)
        domain_log_probs = domain_probs.clip(1e-12, 1.0).log()
        domain_loss = -(Tensor(F.one_hot(batch.domains, domain_probs.shape[-1]))
                        * domain_log_probs).sum(axis=-1).mean()
        loss = label_loss + self.dat_config.alpha * domain_loss
        if self.dat_config.use_information_entropy:
            loss = loss + self.dat_config.beta * F.information_entropy_loss(domain_probs)
        return loss, logits


def train_unbiased_teacher(backbone: FakeNewsDetector, train_loader: DataLoader,
                           val_loader: DataLoader | None = None,
                           config: DATConfig | None = None,
                           seed: int = 0) -> tuple[FakeNewsDetector, TrainingHistory]:
    """Train ``backbone`` with DAT-IE and return it (plus the training history).

    This is stage one of Algorithm 1: the returned backbone is the frozen
    *unbiased teacher* ``T_f`` used by the adversarial de-biasing distillation.
    The :class:`DomainAdversarialModel` wrapper runs through the one
    :class:`~repro.core.trainer.Trainer` loop; validation scores the backbone.
    """
    config = config or DATConfig()
    wrapper = DomainAdversarialModel(backbone, train_loader.num_domains,
                                     config=config, seed=seed)
    history = Trainer(wrapper, TrainerConfig(
        epochs=config.epochs, learning_rate=config.learning_rate,
        max_grad_norm=config.max_grad_norm, verbose=config.verbose,
    )).fit(train_loader, val_loader)
    backbone.eval()
    return backbone, history


def train_dat_student(backbone: FakeNewsDetector, train_loader: DataLoader,
                      val_loader: DataLoader | None = None,
                      use_information_entropy: bool = False,
                      epochs: int = 5, learning_rate: float = 1e-3,
                      seed: int = 0) -> tuple[FakeNewsDetector, TrainingHistory]:
    """Convenience wrapper used by the Table IX comparison (DAT vs DAT-IE)."""
    config = DATConfig(epochs=epochs, learning_rate=learning_rate,
                       use_information_entropy=use_information_entropy)
    return train_unbiased_teacher(backbone, train_loader, val_loader,
                                  config=config, seed=seed)


__all__ = [
    "DATConfig", "DomainAdversarialModel",
    "train_unbiased_teacher", "train_dat_student",
]
