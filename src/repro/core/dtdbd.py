"""The DTDBD trainer: dual-teacher de-biasing distillation (Algorithm 1).

The three stages of Algorithm 1 (Section V of the paper) all run through the
one loop of :class:`repro.core.trainer.Trainer`; they differ only in the
batch loss and the per-epoch weight update:

1. Train the **unbiased teacher** — same architecture as the student — with the
   DAT-IE loss (:func:`repro.core.dat.train_unbiased_teacher`).
2. Fine-tune a multi-domain detector with a domain-knowledge module (MDFEND
   or M3FEND) as the **clean teacher** (a plain :class:`Trainer`).
3. Train the student with :class:`DTDBDTrainer`: the weighted sum of the
   classification loss, the adversarial de-biasing distillation loss against
   the unbiased teacher, and the domain knowledge distillation loss against
   the clean teacher (Eq. 13); after every epoch the momentum-based dynamic
   adjustment updates the weights from the observed change in F1 and bias
   (Eq. 14–15).

Both teachers are frozen during student training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.callbacks import EpochRecord
from repro.core.distill import (
    TeacherCache,
    adversarial_debiasing_distillation_loss,
    domain_knowledge_distillation_loss,
    invalidate_teacher_outputs,
    teacher_forward,
)
from repro.core.momentum import ConstantWeightScheduler, MomentumWeightScheduler
from repro.core.snapshot import pack_weight_scheduler, unpack_weight_scheduler
from repro.core.trainer import Trainer
from repro.data.loader import DataLoader
from repro.models.base import FakeNewsDetector
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor


@dataclass
class DTDBDConfig:
    """Hyper-parameters of the dual-teacher distillation stage."""

    #: The student stage uses neither weight decay nor early stopping; the
    #: loop in :class:`repro.core.trainer.Trainer` reads both.
    weight_decay: ClassVar[float] = 0.0
    early_stopping_patience: ClassVar[int | None] = None

    epochs: int = 5
    learning_rate: float = 1e-3
    #: temperature of the adversarial de-biasing distillation (Eq. 6)
    add_temperature: float = 1.0
    #: temperature of the domain knowledge distillation (Eq. 12)
    dkd_temperature: float = 4.0
    classification_weight: float = 1.0
    momentum: float = 0.9
    initial_weight_add: float = 0.5
    use_dynamic_adjustment: bool = True
    use_add: bool = True
    use_dkd: bool = True
    max_grad_norm: float = 5.0
    #: Precompute each frozen teacher's outputs once per (teacher, loader)
    #: pair — not per trainer — and serve mini-batches by gathering on
    #: ``batch.indices`` (numerically exact — the same arrays, gathered
    #: instead of recomputed) instead of re-running both teacher forwards on
    #: every step.  See :class:`repro.core.distill.TeacherCache` for when
    #: the arrays are reused and the invalidation contract.
    cache_teacher_outputs: bool = True
    #: When set, :meth:`DTDBDTrainer.fit` snapshots here after every epoch
    #: (and, with ``snapshot_every``, mid-epoch) so a killed run can resume.
    snapshot_path: str | None = None
    #: Mid-epoch snapshot cadence in batches (0 = epoch boundaries only).
    snapshot_every: int = 0
    #: Trap SIGTERM/SIGINT during :meth:`DTDBDTrainer.fit`: finish the
    #: current batch, snapshot to ``snapshot_path`` and raise
    #: :class:`repro.core.TrainingInterrupted` instead of dying mid-update.
    snapshot_on_signal: bool = True
    verbose: bool = False


class DTDBDTrainer(Trainer):
    """Distills a student from an unbiased teacher and a clean teacher.

    The epoch loop, snapshots, resume and export are :class:`Trainer`'s;
    this class adds the Eq. 13 batch loss, the Eq. 14–15 weight update after
    each validation, and the frozen-teacher output caches, whose arrays
    outlive the trainer (see :class:`TeacherCache`).  ``trainer.model``
    (also ``trainer.student``) is the student.
    """

    def __init__(self, student: FakeNewsDetector,
                 unbiased_teacher: FakeNewsDetector | None,
                 clean_teacher: FakeNewsDetector | None,
                 config: DTDBDConfig | None = None):
        config = config or DTDBDConfig()
        if config.use_add and unbiased_teacher is None:
            raise ValueError("ADD is enabled but no unbiased teacher was provided")
        if config.use_dkd and clean_teacher is None:
            raise ValueError("DKD is enabled but no clean teacher was provided")
        for teacher in (unbiased_teacher, clean_teacher):
            if teacher is not None:
                teacher.freeze()
                teacher.eval()
        super().__init__(student, config)
        self.unbiased_teacher = unbiased_teacher
        self.clean_teacher = clean_teacher
        self.criterion = CrossEntropyLoss()
        if config.use_dynamic_adjustment:
            self.scheduler = MomentumWeightScheduler(
                momentum=config.momentum,
                initial_weight_add=config.initial_weight_add)
        else:
            self.scheduler = ConstantWeightScheduler(config.initial_weight_add)
        self.weight_history: list[tuple[float, float]] = [self.scheduler.weights()]
        #: per-loader frozen-teacher output caches, keyed by loader identity
        #: (never snapshotted: the teachers are frozen, so a resumed run
        #: rebuilds them bit-identically from the loader)
        self._teacher_caches: dict[int, tuple[TeacherCache | None, TeacherCache | None]] = {}

    @property
    def student(self) -> FakeNewsDetector:
        return self.model

    # ------------------------------------------------------------------ #
    # Frozen-teacher output caching                                        #
    # ------------------------------------------------------------------ #
    def teacher_caches(self, loader: DataLoader) -> tuple[TeacherCache | None, TeacherCache | None]:
        """The ``(unbiased, clean)`` caches for ``loader`` (built on first use)."""
        if not self.config.cache_teacher_outputs:
            return None, None
        key = id(loader)
        if key not in self._teacher_caches:
            self._teacher_caches[key] = (
                TeacherCache(self.unbiased_teacher, loader)
                if self.config.use_add else None,
                TeacherCache(self.clean_teacher, loader)
                if self.config.use_dkd else None)
        return self._teacher_caches[key]

    def invalidate_teacher_caches(self, loader: DataLoader, indices=None) -> None:
        """Invalidate cached teacher outputs over ``loader`` (e.g. fresh rows).

        With ``indices=None``, drop every teacher's cached outputs over
        ``loader``: the next epoch re-runs the full-dataset teacher passes.
        Callers that re-encode a loader must do this (a changed teacher is
        caught by the next trainer's stamp check; within one trainer the
        caller invalidates too).  This trainer's entry, and its loader
        reference, is released.

        With a sequence of absolute dataset positions of ``loader`` (the
        streaming ``OnlineAdapter`` path, where a ring buffer overwrote a
        handful of rows in place), only the :class:`TeacherCache` windows
        containing those rows go stale, in every teacher's cache over that
        loader; everything else keeps serving the original arrays
        bit-identically.
        """
        invalidate_teacher_outputs(loader, indices)
        if indices is None:
            self._teacher_caches.pop(id(loader), None)

    # ------------------------------------------------------------------ #
    def _batch_loss(self, batch,
                    unbiased_cache: TeacherCache | None = None,
                    clean_cache: TeacherCache | None = None) -> tuple:
        """Overall loss of Eq. 13 for one mini-batch.

        Teacher outputs come from the given :class:`TeacherCache` gathers when
        provided (the trainer's fast path) and from a fresh
        :func:`teacher_forward` otherwise, so ad-hoc callers can still score a
        single batch without building a cache.  A ragged batch the cache
        cannot serve bit-exactly (see :meth:`TeacherCache.serves`) is
        forwarded live — at most one batch per epoch — which keeps the cached
        training trajectory bit-identical to the uncached one.

        Note on ragged batches: the ADD term needs at least two samples to
        form a correlation matrix, so a final batch of size 1 contributes only
        CE (+ DKD) to the epoch loss.  The skip is surfaced in ``components``
        (``add`` is reported as 0.0 with ``add_skipped`` set) so epoch-loss
        mixtures remain interpretable.
        """
        weight_add, weight_dkd = self.scheduler.weights()
        logits, features = self.model.forward_with_features(batch)
        loss = self.config.classification_weight * self.criterion(logits, batch.labels)
        components = {"ce": loss.item()}
        if self.config.use_add:
            if len(batch) >= 2:
                if unbiased_cache is not None and unbiased_cache.serves(batch):
                    _, teacher_features = unbiased_cache.lookup(batch)
                else:
                    _, teacher_features = teacher_forward(self.unbiased_teacher, batch)
                add = adversarial_debiasing_distillation_loss(
                    features, teacher_features, temperature=self.config.add_temperature)
                loss = loss + weight_add * add
                components["add"] = add.item()
            else:
                components["add"] = 0.0
                components["add_skipped"] = True
        if self.config.use_dkd:
            if clean_cache is not None and clean_cache.serves(batch):
                teacher_logits, _ = clean_cache.lookup(batch)
            else:
                teacher_logits, _ = teacher_forward(self.clean_teacher, batch)
            dkd = domain_knowledge_distillation_loss(
                logits, teacher_logits, temperature=self.config.dkd_temperature)
            loss = loss + weight_dkd * dkd
            components["dkd"] = dkd.item()
        return loss, logits, components

    def _loss(self, batch) -> Tensor:
        loss, _, _ = self._batch_loss(batch, *self.teacher_caches(self._train_loader))
        return loss

    def _validate(self, record: EpochRecord, val_loader: DataLoader | None) -> None:
        """Validate, then apply the momentum-based weight update (Eq. 14–15)."""
        super()._validate(record, val_loader)
        if val_loader is not None:
            self.scheduler.update(record.epoch, record.val_f1, record.val_total_bias)
        self.weight_history.append(self.scheduler.weights())
        record.extras = {"weight_add": self.scheduler.weight_add,
                         "weight_dkd": self.scheduler.weight_dkd}

    def _snapshot_extra(self) -> dict:
        """The weight scheduler's momentum state and ``weight_history``."""
        return {"scheduler": pack_weight_scheduler(self.scheduler),
                "weight_history": [list(weights) for weights in self.weight_history]}

    def _restore_extra(self, meta: dict) -> None:
        unpack_weight_scheduler(self.scheduler, meta["scheduler"])
        self.weight_history = [tuple(weights) for weights in meta["weight_history"]]
