"""The DTDBD trainer: dual-teacher de-biasing distillation (Algorithm 1).

Pipeline (Section V of the paper):

1. Train the **unbiased teacher** — same architecture as the student — with the
   DAT-IE loss (:func:`repro.core.dat.train_unbiased_teacher`).
2. Take a fine-tuned multi-domain detector with a domain-knowledge module
   (MDFEND or M3FEND) as the **clean teacher**.
3. Train the student with the weighted sum of the classification loss, the
   adversarial de-biasing distillation loss against the unbiased teacher, and
   the domain knowledge distillation loss against the clean teacher (Eq. 13);
   after every epoch the momentum-based dynamic adjustment updates the weights
   from the observed change in F1 and bias (Eq. 14–15).

Both teachers are frozen during student training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.callbacks import EpochRecord, TrainingHistory
from repro.core.dat import DATConfig, train_unbiased_teacher
from repro.core.distill import (
    TeacherCache,
    adversarial_debiasing_distillation_loss,
    domain_knowledge_distillation_loss,
    teacher_forward,
)
from repro.core.momentum import ConstantWeightScheduler, MomentumWeightScheduler
from repro.core.snapshot import (
    load_snapshot,
    module_rng_states,
    pack_adam_state,
    pack_history,
    pack_model_state,
    pack_weight_scheduler,
    restore_module_rng_states,
    save_snapshot,
    unpack_adam_state,
    unpack_history,
    unpack_model_state,
    unpack_weight_scheduler,
)
from repro.core.interrupt import TerminationTrap, TrainingInterrupted, trap_termination
from repro.core.trainer import Trainer, TrainerConfig, evaluate_model
from repro.data.loader import DataLoader
from repro.metrics import EvaluationReport
from repro.models.base import FakeNewsDetector
from repro.nn import Adam, CrossEntropyLoss, GradientClipper
from repro.reliability.faults import fault_point
from repro.utils import get_rng_state, set_rng_state


@dataclass
class DTDBDConfig:
    """Hyper-parameters of the dual-teacher distillation stage."""

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
    #: Precompute each frozen teacher's outputs once per loader and serve
    #: mini-batches by gathering on ``batch.indices`` (numerically exact —
    #: the same arrays, gathered instead of recomputed) instead of re-running
    #: both teacher forwards on every step.  See
    #: :class:`repro.core.distill.TeacherCache` for the invalidation contract.
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


@dataclass
class DTDBDResult:
    """Outcome of a full DTDBD run."""

    student: FakeNewsDetector
    history: TrainingHistory
    weight_history: list[tuple[float, float]] = field(default_factory=list)
    test_report: EvaluationReport | None = None


class DTDBDTrainer:
    """Distills a student from an unbiased teacher and a clean teacher."""

    def __init__(self, student: FakeNewsDetector,
                 unbiased_teacher: FakeNewsDetector | None,
                 clean_teacher: FakeNewsDetector | None,
                 config: DTDBDConfig | None = None):
        self.student = student
        self.unbiased_teacher = unbiased_teacher
        self.clean_teacher = clean_teacher
        self.config = config or DTDBDConfig()
        if self.config.use_add and unbiased_teacher is None:
            raise ValueError("ADD is enabled but no unbiased teacher was provided")
        if self.config.use_dkd and clean_teacher is None:
            raise ValueError("DKD is enabled but no clean teacher was provided")
        if unbiased_teacher is not None:
            unbiased_teacher.freeze()
            unbiased_teacher.eval()
        if clean_teacher is not None:
            clean_teacher.freeze()
            clean_teacher.eval()
        self.optimizer = Adam(student.parameters(), lr=self.config.learning_rate)
        self.clipper = GradientClipper(self.config.max_grad_norm)
        self.criterion = CrossEntropyLoss()
        if self.config.use_dynamic_adjustment:
            self.scheduler = MomentumWeightScheduler(
                momentum=self.config.momentum,
                initial_weight_add=self.config.initial_weight_add)
        else:
            self.scheduler = ConstantWeightScheduler(self.config.initial_weight_add)
        self.history = TrainingHistory()
        self.weight_history: list[tuple[float, float]] = [self.scheduler.weights()]
        #: per-loader frozen-teacher output caches, keyed by loader identity
        self._teacher_caches: dict[int, tuple[TeacherCache | None, TeacherCache | None]] = {}
        # Resume cursor, mirroring repro.core.trainer.Trainer (the teacher
        # caches are deliberately *not* snapshotted: the teachers are frozen,
        # so a resumed run rebuilds them bit-identically from the loader).
        self._epoch = 0
        self._batch_in_epoch = 0
        self._epoch_losses: list[float] = []
        self._epoch_order: np.ndarray | None = None
        self._train_loader: DataLoader | None = None
        self._pending_loader_state: dict | None = None
        self._trap: TerminationTrap | None = None

    # ------------------------------------------------------------------ #
    def _maybe_interrupt(self) -> None:
        """Honour a trapped SIGTERM/SIGINT at a clean batch boundary."""
        if self._trap is None or not self._trap.tripped:
            return
        if self.config.snapshot_path:
            self.snapshot(self.config.snapshot_path)
        raise TrainingInterrupted(self._trap.signal_name,
                                  self.config.snapshot_path)

    # ------------------------------------------------------------------ #
    # Frozen-teacher output caching                                        #
    # ------------------------------------------------------------------ #
    def _caches_for(self, loader: DataLoader) -> tuple[TeacherCache | None, TeacherCache | None]:
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

    def invalidate_teacher_caches(self, indices=None) -> None:
        """Invalidate cached teacher outputs (e.g. after mutating fresh data).

        With ``indices=None``, drop every cached teacher output: the next
        training epoch re-runs the full-dataset teacher passes.  This is never
        needed inside a normal :meth:`fit` — both teachers are frozen — but
        ad-hoc callers that reload teacher weights or re-encode a loader
        between epochs must invalidate before continuing.  The per-loader
        entries (and their loader references) are released outright, so a
        trainer cycled across many loaders does not pin them all.

        With a sequence of absolute dataset positions (the streaming
        ``OnlineAdapter`` path, where a ring buffer overwrote a handful of
        rows in place), only the :class:`TeacherCache` windows containing
        those rows go stale; everything else keeps serving the original
        arrays bit-identically.
        """
        if indices is None:
            self._teacher_caches.clear()
            return
        for unbiased_cache, clean_cache in self._teacher_caches.values():
            for cache in (unbiased_cache, clean_cache):
                if cache is not None:
                    cache.invalidate(indices)

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
        logits, features = self.student.forward_with_features(batch)
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

    def train_epoch(self, loader: DataLoader) -> float:
        """One distillation pass; resumes a pending mid-epoch cursor if set."""
        self.student.train()
        self._train_loader = loader
        if self._pending_loader_state is not None:
            loader.set_rng_state(self._pending_loader_state)
            self._pending_loader_state = None
        unbiased_cache, clean_cache = self._caches_for(loader)
        if self._epoch_order is None:
            self._epoch_order = loader.epoch_order()
            self._batch_in_epoch = 0
            self._epoch_losses = []
        for batch in loader.iter_from(self._epoch_order, self._batch_in_epoch):
            self._maybe_interrupt()
            fault_point("trainer.step", epoch=self._epoch, batch=self._batch_in_epoch)
            self.optimizer.zero_grad()
            loss, _, _ = self._batch_loss(batch, unbiased_cache, clean_cache)
            loss.backward()
            self.clipper.clip(self.optimizer.parameters)
            self.optimizer.step()
            self._epoch_losses.append(loss.item())
            self._batch_in_epoch += 1
            if (self.config.snapshot_path and self.config.snapshot_every
                    and self._batch_in_epoch % self.config.snapshot_every == 0):
                self.snapshot(self.config.snapshot_path)
        losses = self._epoch_losses
        self._epoch_order = None
        self._batch_in_epoch = 0
        self._epoch_losses = []
        return float(np.mean(losses)) if losses else 0.0

    def fit(self, train_loader: DataLoader, val_loader: DataLoader | None = None) -> TrainingHistory:
        with trap_termination(enabled=self.config.snapshot_on_signal) as trap:
            self._trap = trap
            try:
                while self._epoch < self.config.epochs:
                    self._maybe_interrupt()
                    epoch = self._epoch
                    train_loss = self.train_epoch(train_loader)
                    record = EpochRecord(epoch=epoch, train_loss=train_loss)
                    if val_loader is not None:
                        report = evaluate_model(self.student, val_loader)
                        record.val_f1 = report.overall_f1
                        record.val_total_bias = report.total
                        record.val_fned = report.fned
                        record.val_fped = report.fped
                        self.scheduler.update(epoch, report.overall_f1, report.total)
                    self.weight_history.append(self.scheduler.weights())
                    record.extras = {"weight_add": self.scheduler.weight_add,
                                     "weight_dkd": self.scheduler.weight_dkd}
                    self.history.append(record)
                    self._epoch += 1
                    if self.config.verbose:
                        print(f"[DTDBD] epoch {epoch}: loss={train_loss:.4f} "
                              f"F1={record.val_f1} total={record.val_total_bias} "
                              f"w_ADD={self.scheduler.weight_add:.2f}")
                    if self.config.snapshot_path:
                        self.snapshot(self.config.snapshot_path)
            finally:
                self._trap = None
        return self.history

    # ------------------------------------------------------------------ #
    # Crash-resumable state                                                #
    # ------------------------------------------------------------------ #
    def snapshot(self, path: str | os.PathLike) -> None:
        """Atomically capture the distillation run (see ``Trainer.snapshot``).

        On top of the generic trainer state this records the weight
        scheduler's momentum state and ``weight_history``, so the dynamic
        adjustment continues exactly where it stopped.
        """
        meta = {
            "trainer": type(self).__name__,
            "model": self.student.name,
            "cursor": {
                "epoch": self._epoch,
                "batch": self._batch_in_epoch,
                "epoch_losses": self._epoch_losses,
                "mid_epoch": self._epoch_order is not None,
            },
            "history": pack_history(self.history),
            "rng": {
                "fallback": get_rng_state(),
                "loader": (self._train_loader.rng_state()
                           if self._train_loader is not None else None),
                "modules": module_rng_states(self.student),
            },
            "scheduler": pack_weight_scheduler(self.scheduler),
            "weight_history": [list(weights) for weights in self.weight_history],
        }
        arrays: dict[str, np.ndarray] = {}
        pack_model_state(self.student, arrays)
        pack_adam_state(self.optimizer, meta, arrays)
        if self._epoch_order is not None:
            arrays["epoch_order"] = self._epoch_order
        save_snapshot(path, meta, arrays)

    def resume(self, path: str | os.PathLike,
               train_loader: DataLoader | None = None) -> "DTDBDTrainer":
        """Restore a run captured by :meth:`snapshot`; returns ``self``.

        Rebuild the trainer exactly as the crashed run did (same student
        construction, same *frozen* teachers, same config), then call this
        before :meth:`fit`.  Teacher caches are rebuilt on first use — the
        teachers are frozen, so the rebuilt outputs are bit-identical.
        """
        meta, arrays = load_snapshot(path)
        unpack_model_state(self.student, arrays)
        unpack_adam_state(self.optimizer, meta, arrays)
        self.history = unpack_history(meta["history"])
        cursor = meta["cursor"]
        self._epoch = int(cursor["epoch"])
        if cursor["mid_epoch"]:
            self._epoch_order = arrays["epoch_order"]
            self._batch_in_epoch = int(cursor["batch"])
            self._epoch_losses = [float(x) for x in cursor["epoch_losses"]]
        else:
            self._epoch_order = None
            self._batch_in_epoch = 0
            self._epoch_losses = []
        rng = meta["rng"]
        set_rng_state(rng["fallback"])
        restore_module_rng_states(self.student, rng["modules"])
        if rng["loader"] is not None:
            if train_loader is not None:
                train_loader.set_rng_state(rng["loader"])
                self._pending_loader_state = None
            else:
                self._pending_loader_state = rng["loader"]
        unpack_weight_scheduler(self.scheduler, meta["scheduler"])
        self.weight_history = [tuple(weights) for weights in meta["weight_history"]]
        return self

    def export_pipeline(self, path, *, vocab, encoder, max_length: int,
                        tokenizer=None, domain_names=None,
                        model_name: str | None = None,
                        metadata=None) -> str:
        """Bundle the distilled *student* into a servable artifact at ``path``.

        The paper's deployment story is exactly this: the lightweight student
        — not the teachers — serves multi-domain traffic.  Same contract as
        :meth:`repro.core.trainer.Trainer.export_pipeline` (``max_length``
        is required: serving pads to it).
        """
        from repro.serve import export_pipeline  # deferred: keep core import-light

        return export_pipeline(self.student, path, vocab=vocab, encoder=encoder,
                               tokenizer=tokenizer, max_length=max_length,
                               domain_names=domain_names, model_name=model_name,
                               metadata=metadata)


# --------------------------------------------------------------------------- #
# End-to-end convenience pipeline                                              #
# --------------------------------------------------------------------------- #
def run_dtdbd_pipeline(student: FakeNewsDetector,
                       unbiased_teacher_backbone: FakeNewsDetector,
                       clean_teacher: FakeNewsDetector,
                       train_loader: DataLoader,
                       val_loader: DataLoader,
                       test_loader: DataLoader | None = None,
                       clean_teacher_pretrained: bool = False,
                       dat_config: DATConfig | None = None,
                       clean_teacher_config: TrainerConfig | None = None,
                       dtdbd_config: DTDBDConfig | None = None,
                       seed: int = 0) -> DTDBDResult:
    """Run the complete Algorithm 1: train both teachers, then distil the student.

    ``unbiased_teacher_backbone`` must share the student's architecture (the
    paper sets them identical); ``clean_teacher`` is fine-tuned here unless
    ``clean_teacher_pretrained`` is True.

    The distillation stage runs on the frozen-teacher fast path by default
    (``DTDBDConfig.cache_teacher_outputs``): both teachers are finished
    training by the time the :class:`DTDBDTrainer` is built, so their outputs
    are precomputed once and gathered per batch.
    """
    unbiased_teacher, _ = train_unbiased_teacher(
        unbiased_teacher_backbone, train_loader, val_loader,
        config=dat_config or DATConfig(), seed=seed)
    if not clean_teacher_pretrained:
        Trainer(clean_teacher, clean_teacher_config or TrainerConfig()).fit(train_loader, val_loader)
    trainer = DTDBDTrainer(student, unbiased_teacher, clean_teacher,
                           config=dtdbd_config or DTDBDConfig())
    history = trainer.fit(train_loader, val_loader)
    test_report = evaluate_model(student, test_loader) if test_loader is not None else None
    return DTDBDResult(student=student, history=history,
                       weight_history=trainer.weight_history, test_report=test_report)
