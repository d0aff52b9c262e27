"""Serving quickstart: train → export → load → predict from raw text.

This script walks through the `repro.serve` inference-pipeline API:

1. prepare data and train a small student detector,
2. bundle it into one servable artifact (`export_pipeline`),
3. load the artifact back the way a serving process would
   (`load_pipeline` — no training-time state survives the round-trip),
4. score raw text with the `Predictor`,
5. amortise many single requests into full batches with the
   micro-batching queue, and stream a corpus with `predict_iter`.

Run with:  python examples/serve_quickstart.py  [--scale 0.1] [--epochs 3]
"""

from __future__ import annotations

import argparse
import tempfile

from repro.experiments import (
    default_chinese_config,
    export_pipeline,
    prepare_data,
    train_baseline,
)
from repro.serve import load_pipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--out", type=str, default=None,
                        help="artifact directory (default: a temp directory)")
    args = parser.parse_args()

    # 1. Train ------------------------------------------------------------- #
    config = default_chinese_config(scale=args.scale, epochs=args.epochs)
    bundle = prepare_data(config)
    model, report = train_baseline(config.student_name, bundle)
    print(f"Trained {config.student_name}: test F1={report.overall_f1:.3f}")

    # 2. Export ------------------------------------------------------------ #
    out = args.out or tempfile.mkdtemp(prefix="repro_pipeline_")
    path = export_pipeline(model, bundle, out)
    print(f"Exported pipeline artifact -> {path} "
          "(manifest.json + weights.bin + vocab.json)")

    # 3. Load (as a fresh serving process would) --------------------------- #
    pipeline = load_pipeline(path)
    predictor = pipeline.predictor()
    print(f"Loaded: model={pipeline.model_name} dtype={pipeline.dtype} "
          f"domains={len(pipeline.domain_names)} vocab={len(pipeline.vocab)}")

    # 4. Predict from raw text --------------------------------------------- #
    texts = [item.text for item in bundle.splits.test.items[:4]]
    domains = [item.domain for item in bundle.splits.test.items[:4]]
    for text, prediction in zip(texts, predictor.predict(texts, domains=domains)):
        print(f"  {prediction.label_name:4s} p(fake)={prediction.probability_fake:.3f} "
              f"domain={prediction.domain:12s} {text[:40]}...")

    # 5. Micro-batching + streaming ---------------------------------------- #
    with predictor.microbatch(max_batch=32, max_latency_ms=50.0) as queue:
        tickets = [queue.submit(item.text, item.domain)
                   for item in bundle.splits.test.items[:100]]
    correct = sum(ticket.result.label == item.label
                  for ticket, item in zip(tickets, bundle.splits.test.items[:100]))
    print(f"Micro-batched 100 requests in {queue.stats.batches} batches "
          f"({queue.stats.flush_reasons}); accuracy {correct}/100")

    total = sum(1 for _ in predictor.predict_iter(
        (item.text for item in bundle.splits.test), batch_size=64))
    print(f"Streamed the whole test split through predict_iter: {total} items")


if __name__ == "__main__":
    main()
