"""Quickstart: train a student detector with DTDBD on a small synthetic corpus.

This script walks through the full public API in ~60 lines:

1. generate a Weibo21-like multi-domain corpus and split it,
2. build the frozen encoder + data loaders,
3. train a plain TextCNN-S student (the biased baseline),
4. train the unbiased teacher (DAT-IE) and a clean teacher (MDFEND),
5. distil a fresh student with DTDBD,
6. compare F1 and the domain-bias metrics (FNED / FPED / Total).

Run with:  python examples/quickstart.py  [--scale 0.2] [--epochs 6]
"""

from __future__ import annotations

import argparse

from repro.core import (
    DATConfig,
    DTDBDConfig,
    DTDBDTrainer,
    Trainer,
    TrainerConfig,
    evaluate_model,
    train_unbiased_teacher,
)
from repro.data import DataLoader, make_weibo21_like, stratified_split
from repro.encoders import FrozenPretrainedEncoder, LocalBackend, stock_channels
from repro.models import ModelConfig, build_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="fraction of the paper-sized Weibo21 corpus to generate")
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    # 1. Data ------------------------------------------------------------- #
    dataset = make_weibo21_like(scale=args.scale, seed=args.seed)
    splits = stratified_split(dataset, train_fraction=0.6, val_fraction=0.1, seed=0)
    vocab = splits.train.build_vocabulary()
    print(f"Corpus: {len(dataset)} items across {dataset.num_domains} domains, "
          f"vocabulary size {len(vocab)}")

    # 2. Frozen encoder + loaders ------------------------------------------ #
    encoder = FrozenPretrainedEncoder(len(vocab), output_dim=32, seed=args.seed)
    channels = stock_channels(LocalBackend(encoder))

    def loader(split, shuffle):
        return DataLoader(split, vocab, max_length=24, batch_size=32, shuffle=shuffle,
                          seed=0, channels=channels)

    train_loader = loader(splits.train, True)
    val_loader = loader(splits.val, False)
    test_loader = loader(splits.test, False)

    model_config = ModelConfig(plm_dim=32, num_domains=dataset.num_domains, seed=args.seed)

    # 3. Plain student (biased baseline) ----------------------------------- #
    student = build_model("textcnn_s", model_config)
    Trainer(student, TrainerConfig(epochs=args.epochs, learning_rate=2e-3)).fit(
        train_loader, val_loader)
    student_report = evaluate_model(student, test_loader, model_name="student")

    # 4. Teachers ----------------------------------------------------------- #
    unbiased = build_model("textcnn_s", model_config.with_overrides(seed=args.seed + 1))
    train_unbiased_teacher(unbiased, train_loader, val_loader,
                           config=DATConfig(epochs=args.epochs, learning_rate=2e-3))
    clean = build_model("mdfend", model_config.with_overrides(seed=args.seed + 2))
    Trainer(clean, TrainerConfig(epochs=args.epochs, learning_rate=2e-3)).fit(
        train_loader, val_loader)

    # 5. DTDBD distillation -------------------------------------------------- #
    distilled = build_model("textcnn_s", model_config.with_overrides(seed=args.seed + 3))
    trainer = DTDBDTrainer(distilled, unbiased, clean,
                           DTDBDConfig(epochs=args.epochs, learning_rate=2e-3))
    trainer.fit(train_loader, val_loader)
    dtdbd_report = evaluate_model(distilled, test_loader, model_name="dtdbd")

    # 6. Compare ------------------------------------------------------------- #
    print("\n{:<12} {:>8} {:>8} {:>8} {:>8}".format("model", "F1", "FNED", "FPED", "Total"))
    for report in (student_report, dtdbd_report):
        print("{:<12} {:>8.4f} {:>8.4f} {:>8.4f} {:>8.4f}".format(
            report.model, report.overall_f1, report.fned, report.fped, report.total))
    print("\nTeacher weights over epochs (w_ADD, w_DKD):")
    print("   " + ", ".join(f"({a:.2f}, {d:.2f})" for a, d in trainer.weight_history))


if __name__ == "__main__":
    main()
