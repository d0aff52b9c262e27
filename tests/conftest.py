"""Shared fixtures: tiny corpora, loaders and model configs for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DATConfig, DTDBDConfig
from repro.data import (
    DataLoader,
    MultiDomainNewsDataset,
    NewsItem,
    make_weibo21_like,
    stratified_split,
)
from repro.encoders import FrozenPretrainedEncoder, LocalBackend, stock_channels
from repro.experiments import default_chinese_config, default_english_config
from repro.models import ModelConfig


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def fast_test_config():
    """Factory of the tiny ``ExperimentConfig`` the integration tests run."""
    def make(dataset: str = "chinese"):
        base = default_chinese_config() if dataset == "chinese" else default_english_config()
        return base.with_overrides(
            scale=0.05 if dataset == "chinese" else 0.02,
            epochs=2,
            max_length=16,
            dat=DATConfig(epochs=2, learning_rate=2e-3),
            dtdbd=DTDBDConfig(epochs=2, learning_rate=2e-3),
        )
    return make


@pytest.fixture(scope="session")
def tiny_dataset() -> MultiDomainNewsDataset:
    """A small but fully populated Weibo21-like corpus (9 domains)."""
    return make_weibo21_like(scale=0.04, seed=7)


@pytest.fixture(scope="session")
def tiny_splits(tiny_dataset):
    return stratified_split(tiny_dataset, train_fraction=0.6, val_fraction=0.1, seed=0)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_splits):
    return tiny_splits.train.build_vocabulary()


@pytest.fixture(scope="session")
def tiny_encoder(tiny_vocab):
    return FrozenPretrainedEncoder(len(tiny_vocab), output_dim=16, seed=3)


@pytest.fixture(scope="session")
def tiny_channels(tiny_encoder):
    """The stock ``plm`` / ``style`` / ``emotion`` channels over ``tiny_encoder``."""
    return stock_channels(LocalBackend(tiny_encoder))


def _loader(split, vocab, channels, shuffle):
    return DataLoader(split, vocab, max_length=16, batch_size=16, shuffle=shuffle,
                      seed=0, channels=channels)


@pytest.fixture(scope="session")
def train_loader(tiny_splits, tiny_vocab, tiny_channels):
    return _loader(tiny_splits.train, tiny_vocab, tiny_channels, shuffle=True)


@pytest.fixture(scope="session")
def val_loader(tiny_splits, tiny_vocab, tiny_channels):
    return _loader(tiny_splits.val, tiny_vocab, tiny_channels, shuffle=False)


@pytest.fixture(scope="session")
def test_loader(tiny_splits, tiny_vocab, tiny_channels):
    return _loader(tiny_splits.test, tiny_vocab, tiny_channels, shuffle=False)


@pytest.fixture(scope="session")
def sample_batch(train_loader):
    return next(iter(train_loader))


@pytest.fixture(scope="session")
def model_config(tiny_dataset) -> ModelConfig:
    """Small model configuration matching the tiny loaders (plm_dim=16)."""
    return ModelConfig(plm_dim=16, num_domains=tiny_dataset.num_domains,
                       cnn_channels=8, kernel_sizes=(1, 2, 3), rnn_hidden=8,
                       hidden_dim=16, mlp_hidden=(16,), num_experts=3,
                       expert_hidden=12, domain_embedding_dim=6, seed=5)


@pytest.fixture
def manual_dataset() -> MultiDomainNewsDataset:
    """A hand-written 2-domain dataset with known counts for metric tests."""
    items = []
    texts_a = ["alpha beta fake", "alpha beta real", "alpha gamma fake", "alpha delta real"]
    labels_a = [1, 0, 1, 0]
    texts_b = ["omega beta fake", "omega real item", "omega another real"]
    labels_b = [1, 0, 0]
    for i, (text, label) in enumerate(zip(texts_a, labels_a)):
        items.append(NewsItem(text=text, label=label, domain=0, domain_name="sports", item_id=i))
    for i, (text, label) in enumerate(zip(texts_b, labels_b)):
        items.append(NewsItem(text=text, label=label, domain=1, domain_name="tech",
                              item_id=10 + i))
    return MultiDomainNewsDataset(items, ["sports", "tech"], name="manual")


@pytest.fixture
def count_forwards():
    """Count each given model's ``forward_with_features`` calls, by ``id()``.

    ``count_forwards(models)`` wraps the method on each instance and returns
    the live ``id(model) -> calls`` map.
    """
    def install(models):
        counts = {}
        for model in models:
            counts[id(model)] = 0

            def counted(batch, _model=model, _forward=model.forward_with_features):
                counts[id(_model)] += 1
                return _forward(batch)

            model.forward_with_features = counted
        return counts
    return install
