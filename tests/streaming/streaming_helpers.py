"""Builders shared by the streaming-subsystem tests.

The root conftest's loaders are session-shared, but the streaming ring
buffer overwrites loader rows in place — hence these private builders.  The
corpus/vocab are module-cached (dtype-independent plain NumPy); models,
loaders and pipelines are rebuilt per call inside the requested dtype
policy.
"""

from __future__ import annotations

from repro.data import DataLoader, MultiDomainNewsDataset, make_weibo21_like
from repro.encoders import FrozenPretrainedEncoder, stock_channels
from repro.models import ModelConfig, build_model
from repro.serve import Pipeline
from repro.streaming import (
    AdapterConfig,
    DriftConfig,
    DriftMonitor,
    OnlineAdapter,
    StreamConfig,
    StreamRunner,
)
from repro.tensor import default_dtype

DTYPES = ("float64", "float32")
SCALE = 0.03
PLM_DIM = 16
MAX_LENGTH = 16

_DATASET = None
_VOCAB = None


def corpus():
    global _DATASET, _VOCAB
    if _DATASET is None:
        _DATASET = make_weibo21_like(scale=SCALE, seed=7)
        _VOCAB = _DATASET.build_vocabulary()
    return _DATASET, _VOCAB


def small_config(num_domains: int, seed: int = 5) -> ModelConfig:
    return ModelConfig(plm_dim=PLM_DIM, num_domains=num_domains,
                       cnn_channels=8, kernel_sizes=(1, 2, 3), rnn_hidden=8,
                       hidden_dim=16, mlp_hidden=(16,), num_experts=3,
                       expert_hidden=12, domain_embedding_dim=6, seed=seed)


def build_pipeline(dtype: str, model_name: str = "textcnn_s") -> Pipeline:
    dataset, vocab = corpus()
    with default_dtype(dtype):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=PLM_DIM, seed=3)
        model = build_model(model_name, small_config(dataset.num_domains))
        return Pipeline.from_training(model, vocab, encoder,
                                      max_length=MAX_LENGTH,
                                      domain_names=list(dataset.domain_names))


def ring_loader(pipeline: Pipeline, rows: int = 32) -> DataLoader:
    """A channel-built loader over the first ``rows`` corpus items.

    Items and domain names are copied so onboarding (which appends to the
    loader's domain vocabulary) and ring writes never mutate the cached
    corpus shared across tests.
    """
    dataset, vocab = corpus()
    with default_dtype(pipeline.dtype):
        ring = MultiDomainNewsDataset(list(dataset.items[:rows]),
                                      domain_names=list(dataset.domain_names),
                                      name="stream-ring")
        return DataLoader(ring, vocab, max_length=MAX_LENGTH, batch_size=16,
                          shuffle=True, seed=0,
                          channels=stock_channels(pipeline.encoder))


def build_stack(dtype: str, export_path: str, model_name: str = "textcnn_s",
                rows: int = 32, distilled: bool = False,
                drift_config: DriftConfig | None = None,
                stream_config: StreamConfig | None = None,
                min_feedback: int = 4) -> StreamRunner:
    """Pipeline + ring loader + adapter + monitor + runner, all tiny."""
    pipeline = build_pipeline(dtype, model_name)
    teachers = {}
    if distilled:
        dataset, _ = corpus()
        with default_dtype(dtype):
            teachers = {
                "unbiased_teacher": build_model(
                    "mdfend", small_config(dataset.num_domains, seed=6)),
                "clean_teacher": build_model(
                    "mdfend", small_config(dataset.num_domains, seed=7)),
            }
    adapter = OnlineAdapter(pipeline, ring_loader(pipeline, rows=rows),
                            AdapterConfig(export_path=export_path,
                                          min_feedback=min_feedback),
                            **teachers)
    # Tiny windows, zero PSI threshold: the monitor must fire on any
    # schedule long enough to fill a window, making adapt/reload reachable
    # in a few dozen events.
    monitor = DriftMonitor(pipeline.domain_names, drift_config or DriftConfig(
        window=16, min_window=8, reference_size=8, min_labeled=8,
        cooldown=24, psi_threshold=0.0, bias_threshold=0.4))
    return StreamRunner(pipeline.predictor(), monitor, adapter,
                        stream_config or StreamConfig(max_batch=8,
                                                      warmup_min_labeled=3))
