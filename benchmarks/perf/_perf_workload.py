"""Shared synthetic Weibo21-shaped workload for the perf benchmarks.

The corpus/vocabulary are built once (plain NumPy, dtype-independent); loaders
and models are rebuilt per configuration inside the requested dtype policy so
parameters, feature channels and per-batch tensors all live in that dtype.
"""

from __future__ import annotations

import numpy as np

from repro.core.dtdbd import DTDBDConfig, DTDBDTrainer
from repro.core.trainer import Trainer, TrainerConfig, evaluate_model
from repro.data import DataLoader, make_weibo21_like
from repro.encoders import FrozenPretrainedEncoder, LocalBackend, stock_channels
from repro.models import ModelConfig, build_model
from repro.tensor import default_dtype, fused_kernels

PLM_DIM = 32
MAX_LENGTH = 24
BATCH_SIZE = 32
SCALE = 0.08

_DATASET = None
_VOCAB = None


def _corpus():
    global _DATASET, _VOCAB
    if _DATASET is None:
        _DATASET = make_weibo21_like(scale=SCALE, seed=2024)
        _VOCAB = _DATASET.build_vocabulary()
    return _DATASET, _VOCAB


def build_workload(dtype: str, model_name: str):
    """Return ``(model, loader)`` built entirely under the ``dtype`` policy."""
    dataset, vocab = _corpus()
    with default_dtype(dtype):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=PLM_DIM, seed=3)
        loader = DataLoader(
            dataset, vocab, max_length=MAX_LENGTH, batch_size=BATCH_SIZE,
            shuffle=True, seed=0, channels=stock_channels(LocalBackend(encoder)))
        config = ModelConfig(plm_dim=PLM_DIM, num_domains=dataset.num_domains, seed=0)
        model = build_model(model_name, config)
    return model, loader


def run_train_steps(model, loader, dtype: str, fused_on: bool, steps: int) -> int:
    """Run ``steps`` optimisation steps (forward+backward+clip+update)."""
    trainer = Trainer(model, TrainerConfig(epochs=1, learning_rate=1e-3))
    done = 0
    with default_dtype(dtype), fused_kernels(fused_on):
        model.train()
        while done < steps:
            for batch in loader:
                trainer.optimizer.zero_grad()
                loss, _ = model.compute_loss(batch)
                loss.backward()
                trainer.clipper.clip(trainer.optimizer.parameters)
                trainer.optimizer.step()
                done += 1
                if done >= steps:
                    break
    return done


def run_eval_pass(model, loader, dtype: str, fused_on: bool):
    """One full no-grad evaluation pass over the loader."""
    with default_dtype(dtype), fused_kernels(fused_on):
        return evaluate_model(model, loader)


# --------------------------------------------------------------------------- #
# DTDBD distillation step (Algorithm 1, student stage)                         #
# --------------------------------------------------------------------------- #
def build_dtdbd_workload(dtype: str, cached: bool):
    """Return ``(trainer, loader)`` for the student-distillation benchmark.

    The cast is the paper's: a TextCNN-S student, a TextCNN-S unbiased teacher
    and an MDFEND clean teacher (both teachers frozen — untrained weights, the
    step cost does not depend on convergence).  The trainer persists across
    timing rounds so the one-off teacher-cache materialisation happens during
    warm-up, not inside the timed region — exactly how a real multi-epoch run
    amortises it.
    """
    dataset, vocab = _corpus()
    with default_dtype(dtype):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=PLM_DIM, seed=3)
        loader = DataLoader(
            dataset, vocab, max_length=MAX_LENGTH, batch_size=BATCH_SIZE,
            shuffle=True, seed=0, channels=stock_channels(LocalBackend(encoder)))
        config = ModelConfig(plm_dim=PLM_DIM, num_domains=dataset.num_domains, seed=0)
        student = build_model("textcnn_s", config)
        unbiased = build_model("textcnn_s", config.with_overrides(seed=1))
        clean = build_model("mdfend", config.with_overrides(seed=2))
        trainer = DTDBDTrainer(
            student, unbiased, clean,
            DTDBDConfig(epochs=1, learning_rate=1e-3,
                        cache_teacher_outputs=cached))
    return trainer, loader


def run_dtdbd_steps(trainer, loader, dtype: str, fused_on: bool, steps: int) -> int:
    """Run ``steps`` full distillation steps (CE + ADD + DKD, Eq. 13)."""
    done = 0
    with default_dtype(dtype), fused_kernels(fused_on):
        trainer.student.train()
        unbiased_cache, clean_cache = trainer.teacher_caches(loader)
        while done < steps:
            for batch in loader:
                trainer.optimizer.zero_grad()
                loss, _, _ = trainer._batch_loss(batch, unbiased_cache, clean_cache)
                loss.backward()
                trainer.clipper.clip(trainer.optimizer.parameters)
                trainer.optimizer.step()
                done += 1
                if done >= steps:
                    break
    return done
