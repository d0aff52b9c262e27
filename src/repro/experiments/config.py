"""Experiment configuration shared by benchmarks, examples and the runner."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.dat import DATConfig
from repro.core.dtdbd import DTDBDConfig
from repro.core.trainer import TrainerConfig
from repro.models.base import ModelConfig


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one of the paper's experiments.

    ``scale`` multiplies the paper's per-domain counts; the defaults are chosen
    so the full benchmark suite finishes on a laptop-class CPU while keeping
    every domain populated.  Set ``REPRO_SCALE`` / ``REPRO_EPOCHS`` environment
    variables (see :func:`default_chinese_config`) to run closer to paper size.

    ``dtype`` selects the engine compute dtype for the whole pipeline
    (loaders, models, training): ``"float64"`` is the bit-for-bit seed
    behaviour, ``"float32"`` the fast path (``REPRO_DTYPE=float32``).
    :func:`repro.experiments.runner.prepare_data` installs the policy before
    anything dtype-sensitive is built.  Table VI/VII numbers produced in
    float32 agree with the float64 tables to well within the run-to-run seed
    variance (see ``PERFORMANCE.md``); re-check that tolerance after touching
    kernels before quoting float32 numbers.
    """

    dataset: str = "chinese"               # "chinese" (Weibo21-like) or "english"
    scale: float = 0.3
    seed: int = 2024
    split_seed: int = 0
    train_fraction: float = 0.6
    val_fraction: float = 0.1
    max_length: int = 24
    batch_size: int = 32
    plm_dim: int = 32
    epochs: int = 8
    learning_rate: float = 2e-3
    model: ModelConfig = field(default_factory=ModelConfig)
    dat: DATConfig = field(default_factory=DATConfig)
    dtdbd: DTDBDConfig = field(default_factory=DTDBDConfig)
    student_name: str = "textcnn_s"
    dtype: str = "float64"
    #: encoder backend serving the ``plm`` feature channel — a kind from
    #: :func:`repro.encoders.available_encoder_backends` ("local" is the
    #: bit-for-bit default; "cached" memoises repeated windows).
    #: ``REPRO_ENCODER_BACKEND`` overrides it in the default configs.
    encoder_backend: str = "local"

    def trainer_config(self, **overrides) -> TrainerConfig:
        base = TrainerConfig(epochs=self.epochs, learning_rate=self.learning_rate)
        return replace(base, **overrides) if overrides else base

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else default


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_str(name: str, default: str) -> str:
    value = os.environ.get(name)
    return value if value else default


def default_chinese_config(**overrides) -> ExperimentConfig:
    """Default configuration for the Weibo21-like (Chinese) experiments.

    ``REPRO_SCALE`` and ``REPRO_EPOCHS`` environment variables override the
    corpus scale and training epochs, which is how a user runs the benchmarks
    closer to the paper's full dataset size; ``REPRO_DTYPE=float32`` runs the
    whole pipeline on the float32 fast path.
    """
    scale = _env_float("REPRO_SCALE", 0.3)
    epochs = _env_int("REPRO_EPOCHS", 8)
    config = ExperimentConfig(
        dataset="chinese",
        scale=scale,
        epochs=epochs,
        dat=DATConfig(epochs=epochs, learning_rate=2e-3, alpha=1.0),
        dtdbd=DTDBDConfig(epochs=epochs, learning_rate=2e-3),
        dtype=_env_str("REPRO_DTYPE", "float64"),
        encoder_backend=_env_str("REPRO_ENCODER_BACKEND", "local"),
    )
    return config.with_overrides(**overrides) if overrides else config


def default_english_config(**overrides) -> ExperimentConfig:
    """Default configuration for the FakeNewsNet+COVID-like (English) experiments.

    The English corpus is much larger than Weibo21 (28,764 items), so the
    default scale is smaller; its three domains are kept intact.
    """
    scale = _env_float("REPRO_SCALE_EN", 0.08)
    epochs = _env_int("REPRO_EPOCHS", 8)
    config = ExperimentConfig(
        dataset="english",
        scale=scale,
        epochs=epochs,
        dat=DATConfig(epochs=epochs, learning_rate=2e-3, alpha=1.0),
        dtdbd=DTDBDConfig(epochs=epochs, learning_rate=2e-3),
        dtype=_env_str("REPRO_DTYPE", "float64"),
        encoder_backend=_env_str("REPRO_ENCODER_BACKEND", "local"),
    )
    return config.with_overrides(**overrides) if overrides else config


def experiment_config(dataset: str, overrides: dict | None = None) -> ExperimentConfig:
    """The dataset's default configuration with ``overrides`` applied.

    The one config builder of the CLI commands and the sweep cells.  An
    ``epochs`` override also applies to the DAT and DTDBD sub-configs.
    """
    overrides = overrides or {}
    factory = default_chinese_config if dataset == "chinese" else default_english_config
    config = factory(**overrides)
    epochs = overrides.get("epochs")
    if epochs is not None:
        config.dat.epochs = int(epochs)
        config.dtdbd.epochs = int(epochs)
    return config
