"""Chaos-suite fixtures.

The session-scoped loaders in the repository conftest carry live RNG state
(shuffle streams) that resume tests consume and restore, so nothing here may
mutate them.  Instead every reliability test gets a factory that builds a
fresh, fully self-contained training world — dataset, vocabulary, encoder,
feature channels, loaders — under the *currently active* engine dtype, which is how
the kill-and-resume tests pin bit-identity in both ``REPRO_DTYPE`` modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.data import DataLoader, MultiDomainNewsDataset, make_weibo21_like, stratified_split
from repro.encoders import FrozenPretrainedEncoder, stock_channels
from repro.models import ModelConfig, build_model
from repro.reliability import active_plan
from repro.serve import Pipeline, save_pipeline
from repro.utils import get_rng_state, set_global_seed, set_rng_state


@pytest.fixture(autouse=True)
def _isolate_global_state():
    """Restore the experiment RNG stream and assert no plan leaked."""
    state = get_rng_state()
    yield
    set_rng_state(state)
    assert active_plan() is None, "a FaultPlan leaked out of its inject() block"


# Per-test wall-clock limits come from the repository-root conftest's shared
# ``_suite_watchdog`` fixture (override with ``@pytest.mark.watchdog(s)``).


@dataclass
class TrainingWorld:
    """A fresh tiny corpus plus everything needed to train on it."""

    dataset: MultiDomainNewsDataset
    splits: object
    vocab: dict
    encoder: FrozenPretrainedEncoder
    channels: list
    config: ModelConfig

    def loaders(self, batch_size: int = 16):
        train = DataLoader(self.splits.train, self.vocab, max_length=16,
                           batch_size=batch_size, shuffle=True, seed=0,
                           channels=self.channels)
        val = DataLoader(self.splits.val, self.vocab, max_length=16,
                         batch_size=batch_size, shuffle=False, seed=0,
                         channels=self.channels)
        return train, val


@pytest.fixture
def make_world():
    """Factory building a :class:`TrainingWorld` in the current engine dtype."""

    def build(scale: float = 0.04) -> TrainingWorld:
        dataset = make_weibo21_like(scale=scale, seed=7)
        splits = stratified_split(dataset, train_fraction=0.6, val_fraction=0.1, seed=0)
        vocab = splits.train.build_vocabulary()
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=16, seed=3)
        channels = stock_channels(encoder)
        config = ModelConfig(plm_dim=16, num_domains=dataset.num_domains,
                             cnn_channels=8, kernel_sizes=(1, 2, 3), rnn_hidden=8,
                             hidden_dim=16, mlp_hidden=(16,), num_experts=3,
                             expert_hidden=12, domain_embedding_dim=6, seed=5)
        return TrainingWorld(dataset=dataset, splits=splits, vocab=vocab,
                             encoder=encoder, channels=channels, config=config)

    return build


@pytest.fixture(scope="module")
def serving_pipeline(tiny_vocab, tiny_encoder, model_config, tiny_dataset):
    """An untrained but fully wired pipeline (deterministic predictions)."""
    set_global_seed(0)
    model = build_model("textcnn_s", model_config)
    return Pipeline.from_training(model, tiny_vocab, tiny_encoder, max_length=16,
                                  domain_names=list(tiny_dataset.domain_names))


@pytest.fixture
def artifact(serving_pipeline, tmp_path):
    """A freshly saved pipeline artifact directory (safe to corrupt)."""
    path = str(tmp_path / "detector")
    save_pipeline(serving_pipeline, path)
    return path
