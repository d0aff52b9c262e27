"""Inference-pipeline throughput: micro-batched Predictor vs per-text calls.

The serving workload is many independent single-text requests.  Scoring each
one alone pays the full per-call overhead (encode, feature channels, one-row
GEMMs); the :class:`repro.serve.MicroBatcher` amortises all of it across a
full-width batch.  This lane measures both shapes on the synthetic
Weibo21-sized workload and records samples/sec to ``BENCH_engine.json``.

Acceptance gate for the serving PR: micro-batched throughput must be at
least 3x the naive one-at-a-time path.

The unmarked smoke tests at the bottom run in the *default* tier-1
collection (like ``test_perf_smoke.py``): a tiny pipeline, three texts,
asserts only — catching functional regressions of the serve path on every
test run without paying for a benchmark pass.

Run the measured lane with ``pytest benchmarks/perf --run-perf -q -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _bench_utils import record_bench
from _perf_workload import MAX_LENGTH, PLM_DIM, _corpus

from repro.encoders import FrozenPretrainedEncoder
from repro.models import ModelConfig, build_model
from repro.serve import Pipeline
from repro.tensor import default_dtype

REQUESTS = 256
MICRO_BATCH = 64
ROUNDS = 5


def _build_predictor(dtype: str = "float32"):
    """A textcnn_s serving pipeline over the shared perf corpus."""
    dataset, vocab = _corpus()
    with default_dtype(dtype):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=PLM_DIM, seed=3)
        config = ModelConfig(plm_dim=PLM_DIM, num_domains=dataset.num_domains, seed=0)
        model = build_model("textcnn_s", config)
    pipeline = Pipeline.from_training(model, vocab, encoder, max_length=MAX_LENGTH,
                                      domain_names=dataset.domain_names)
    texts = [item.text for item in dataset.items[:REQUESTS]]
    domains = [item.domain for item in dataset.items[:REQUESTS]]
    return pipeline.predictor(), texts, domains


def _run_per_text(predictor, texts, domains) -> None:
    for text, domain in zip(texts, domains):
        predictor.predict_proba([text], domains=[domain])


def _run_microbatched(predictor, texts, domains) -> None:
    with predictor.microbatch(max_batch=MICRO_BATCH, max_latency_ms=1e9) as queue:
        for text, domain in zip(texts, domains):
            queue.submit(text, domain)


@pytest.mark.perf
def test_inference_microbatch_throughput():
    predictor, texts, domains = _build_predictor()
    _run_per_text(predictor, texts[:16], domains[:16])      # warm-up
    _run_microbatched(predictor, texts[:64], domains[:64])
    best_naive = best_micro = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _run_per_text(predictor, texts, domains)
        best_naive = min(best_naive, time.perf_counter() - start)
        start = time.perf_counter()
        _run_microbatched(predictor, texts, domains)
        best_micro = min(best_micro, time.perf_counter() - start)

    naive_sps = REQUESTS / best_naive
    micro_sps = REQUESTS / best_micro
    speedup = micro_sps / naive_sps
    entries = [
        {"name": "inference/per_text",
         "samples_per_s": round(naive_sps, 1),
         "description": "one predict_proba call per raw text (fused float32)"},
        {"name": "inference/microbatch",
         "samples_per_s": round(micro_sps, 1),
         "baseline": "per-text predict_proba calls",
         "fast": f"MicroBatcher(max_batch={MICRO_BATCH})",
         "speedup": round(speedup, 2)},
    ]
    path = record_bench("engine", entries)
    print(f"inference/per_text   {naive_sps:9.1f} samples/s")
    print(f"inference/microbatch {micro_sps:9.1f} samples/s   {speedup:5.2f}x -> {path}")

    # Acceptance criterion for this PR: micro-batched serving must be at
    # least 3x the naive one-at-a-time path.
    assert speedup >= 3.0, f"micro-batching speedup {speedup:.2f}x below the 3x target"


@pytest.mark.perf
def test_inference_streaming_corpus_scoring():
    """predict_iter corpus lane: streamed batched scoring of the full corpus."""
    predictor, texts, domains = _build_predictor()
    list(predictor.predict_iter(texts[:64], domains=domains[:64], batch_size=64))
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        total = sum(1 for _ in predictor.predict_iter(texts, domains=domains,
                                                      batch_size=MICRO_BATCH))
        best = min(best, time.perf_counter() - start)
    assert total == REQUESTS
    sps = REQUESTS / best
    path = record_bench("engine", [{
        "name": "inference/predict_iter",
        "samples_per_s": round(sps, 1),
        "description": f"streaming corpus scoring, batch_size={MICRO_BATCH}",
    }])
    print(f"inference/predict_iter {sps:9.1f} samples/s -> {path}")


# --------------------------------------------------------------------------- #
# Tier-1 smoke (no perf marker: runs in the default collection)                #
# --------------------------------------------------------------------------- #
def test_inference_smoke_save_load_predict(tmp_path):
    """Tiny pipeline, three texts: export → load → identical probabilities."""
    texts = ["dom1_topic3 fake_sig_1 emo_arousal_x style_sensational_y",
             "dom0_topic1 common_a common_b calm report",
             "dom2_topic9 style_formal_z common_c"]
    vocab_tokens = " ".join(texts).split()
    from repro.data import Vocabulary

    vocab = Vocabulary(vocab_tokens)
    with default_dtype("float32"):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=8, seed=1)
        config = ModelConfig(plm_dim=8, num_domains=3, cnn_channels=4,
                             kernel_sizes=(1, 2), rnn_hidden=4, hidden_dim=8,
                             mlp_hidden=(8,), num_experts=2, expert_hidden=4,
                             domain_embedding_dim=4, seed=0)
        model = build_model("textcnn_s", config)
    pipeline = Pipeline.from_training(model, vocab, encoder, max_length=8,
                                      domain_names=["a", "b", "c"])
    expected = pipeline.predictor().predict_proba(texts, domains=[0, 1, 2])
    assert expected.shape == (3, 2)
    assert expected.dtype == np.float32
    np.testing.assert_allclose(expected.sum(axis=1), 1.0, atol=1e-6)

    from repro.serve import load_pipeline, save_pipeline

    loaded = load_pipeline(save_pipeline(pipeline, tmp_path / "smoke"))
    observed = loaded.predictor().predict_proba(texts, domains=[0, 1, 2])
    np.testing.assert_array_equal(observed, expected)


def test_inference_smoke_microbatch_amortises(tmp_path):
    """The queue must group submits into full batches and resolve every ticket."""
    predictor, texts, domains = _build_predictor()
    queue = predictor.microbatch(max_batch=8, max_latency_ms=1e9)
    tickets = [queue.submit(text, domain)
               for text, domain in zip(texts[:20], domains[:20])]
    queue.drain()
    assert all(ticket.done for ticket in tickets)
    assert queue.stats.batches == 3  # 8 + 8 + 4
    assert queue.stats.flush_reasons == {"full": 2, "latency": 0, "drain": 1}
    for ticket in tickets:
        assert ticket.result.label in (0, 1)
        assert 0.0 <= ticket.result.probability_fake <= 1.0
