"""The one training loop.

Every model this repository trains goes through :class:`Trainer`: the
baselines of Tables VI and VII, the clean teacher, the DAT-IE unbiased
teacher (:func:`repro.core.dat.train_unbiased_teacher` wraps the backbone in
a domain-adversarial head) and the DTDBD student
(:class:`repro.core.dtdbd.DTDBDTrainer` overrides the batch loss and the
per-epoch weight update).  The loop is Adam, gradient clipping, per-epoch
validation with the F1 and domain-bias metrics, optional early stopping, and
crash-resumable snapshots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.callbacks import EarlyStopping, EpochRecord, TrainingHistory
from repro.core.interrupt import TerminationTrap, TrainingInterrupted, trap_termination
from repro.core.snapshot import (
    SnapshotError,
    load_snapshot,
    module_rng_states,
    pack_adam_state,
    pack_early_stopping,
    pack_history,
    pack_model_state,
    restore_module_rng_states,
    save_snapshot,
    unpack_adam_state,
    unpack_early_stopping,
    unpack_history,
    unpack_model_state,
)
from repro.data.loader import DataLoader
from repro.metrics import EvaluationReport, evaluate_predictions
from repro.models.base import FakeNewsDetector
from repro.nn import Adam, GradientClipper
from repro.reliability.faults import fault_point
from repro.tensor import Tensor, no_grad
from repro.utils import get_rng_state, set_rng_state


@dataclass
class TrainerConfig:
    """Optimisation hyper-parameters."""

    epochs: int = 5
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    max_grad_norm: float = 5.0
    early_stopping_patience: int | None = None
    #: When set, :meth:`Trainer.fit` snapshots here after every epoch (and,
    #: with ``snapshot_every``, mid-epoch) so a killed run can resume.
    snapshot_path: str | None = None
    #: Mid-epoch snapshot cadence in batches (0 = epoch boundaries only).
    snapshot_every: int = 0
    #: Trap SIGTERM/SIGINT during :meth:`Trainer.fit`: finish the current
    #: batch, write a final snapshot to ``snapshot_path`` and raise
    #: :class:`repro.core.TrainingInterrupted` instead of dying mid-update.
    snapshot_on_signal: bool = True
    verbose: bool = False


def evaluate_model(model: FakeNewsDetector, loader: DataLoader,
                   model_name: str | None = None) -> EvaluationReport:
    """Run ``model`` over ``loader`` (unshuffled) and compute the full report."""
    predictions: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    domains: list[np.ndarray] = []
    with no_grad():
        for batch in loader.iter_eval():
            predictions.append(model.predict(batch))
            labels.append(batch.labels)
            domains.append(batch.domains)
    return evaluate_predictions(
        np.concatenate(labels), np.concatenate(predictions), np.concatenate(domains),
        loader.dataset.domain_names, model_name=model_name or model.name)


def collect_features(model: FakeNewsDetector, loader: DataLoader,
                     max_items: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract intermediate features for analysis (t-SNE, Figure 2).

    Returns ``(features, labels, domains)`` as NumPy arrays.
    """
    feature_blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    domains: list[np.ndarray] = []
    collected = 0
    was_training = model.training
    model.eval()
    with no_grad():
        for batch in loader.iter_eval():
            feature_blocks.append(model.extract_features(batch).numpy())
            labels.append(batch.labels)
            domains.append(batch.domains)
            collected += len(batch)
            if max_items is not None and collected >= max_items:
                break
    if was_training:
        model.train()
    features = np.concatenate(feature_blocks)[:max_items]
    return (features,
            np.concatenate(labels)[:max_items],
            np.concatenate(domains)[:max_items])


class Trainer:
    """The epoch loop every training stage runs through.

    Subclasses change what a step optimises by overriding :meth:`_loss`,
    what happens after each epoch by overriding :meth:`_validate`, and what
    else a snapshot carries with :meth:`_snapshot_extra` /
    :meth:`_restore_extra`.  The plain trainer minimises the model's own
    ``compute_loss``.
    """

    def __init__(self, model: FakeNewsDetector, config: TrainerConfig | None = None):
        self.model = model
        self.config = config or TrainerConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate,
                              weight_decay=self.config.weight_decay)
        self.clipper = GradientClipper(self.config.max_grad_norm)
        self.history = TrainingHistory()
        self._stopper = (EarlyStopping(patience=self.config.early_stopping_patience)
                         if self.config.early_stopping_patience else None)
        self._stopped = False
        # Resume cursor: epochs completed so far, and — while an epoch is in
        # flight — the materialised index permutation plus position within it.
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

    def _loss(self, batch) -> Tensor:
        """The objective of one training batch (override point)."""
        loss, _ = self.model.compute_loss(batch)
        return loss

    def _training_step(self, batch) -> float:
        """One optimiser update; returns the batch loss."""
        self.optimizer.zero_grad()
        loss = self._loss(batch)
        loss.backward()
        self.clipper.clip(self.optimizer.parameters)
        self.optimizer.step()
        return loss.item()

    def train_epoch(self, loader: DataLoader) -> float:
        """One optimisation pass over ``loader``; returns the mean batch loss.

        When a mid-epoch resume cursor is pending (after :meth:`resume` from
        a mid-epoch snapshot), continues that epoch from the stored batch
        instead of starting a fresh pass; batch shapes and RNG consumption
        match the uninterrupted run exactly, so the loss trajectory is
        bit-identical.
        """
        self.model.train()
        self._train_loader = loader
        self._apply_pending_loader_state(loader)
        if self._epoch_order is None:
            self._epoch_order = loader.epoch_order()
            self._batch_in_epoch = 0
            self._epoch_losses = []
        for batch in loader.iter_from(self._epoch_order, self._batch_in_epoch):
            self._maybe_interrupt()
            fault_point("trainer.step", epoch=self._epoch, batch=self._batch_in_epoch)
            self._epoch_losses.append(self._training_step(batch))
            self._batch_in_epoch += 1
            if (self.config.snapshot_path and self.config.snapshot_every
                    and self._batch_in_epoch % self.config.snapshot_every == 0):
                self.snapshot(self.config.snapshot_path)
        losses = self._epoch_losses
        self._epoch_order = None
        self._batch_in_epoch = 0
        self._epoch_losses = []
        return float(np.mean(losses)) if losses else 0.0

    def _validate(self, record: EpochRecord, val_loader: DataLoader | None) -> None:
        if val_loader is None:
            return
        report = evaluate_model(self.model, val_loader)
        record.val_f1 = report.overall_f1
        record.val_total_bias = report.total
        record.val_fned = report.fned
        record.val_fped = report.fped

    def fit(self, train_loader: DataLoader, val_loader: DataLoader | None = None) -> TrainingHistory:
        """Train until ``config.epochs`` epochs are complete, validating each.

        Counts from the trainer's epoch cursor, so a trainer restored with
        :meth:`resume` continues where the crashed run stopped rather than
        starting over.

        With ``config.snapshot_on_signal`` (the default), SIGTERM/SIGINT
        during the run stop it at the next batch boundary: a final snapshot
        goes to ``config.snapshot_path`` and :class:`TrainingInterrupted`
        is raised, so a preempted job resumes instead of starting over.
        """
        with trap_termination(enabled=self.config.snapshot_on_signal) as trap:
            self._trap = trap
            try:
                while self._epoch < self.config.epochs and not self._stopped:
                    self._maybe_interrupt()
                    epoch = self._epoch
                    train_loss = self.train_epoch(train_loader)
                    record = EpochRecord(epoch=epoch, train_loss=train_loss)
                    self._validate(record, val_loader)
                    self.history.append(record)
                    self._epoch += 1
                    if self.config.verbose:
                        bias = f", bias={record.val_total_bias:.3f}" if record.val_total_bias is not None else ""
                        f1 = f", F1={record.val_f1:.3f}" if record.val_f1 is not None else ""
                        extras = "".join(f", {key}={value:.2f}"
                                         for key, value in record.extras.items())
                        print(f"[{self.model.name}] epoch {epoch}: "
                              f"loss={train_loss:.4f}{f1}{bias}{extras}")
                    if (self._stopper is not None and record.val_f1 is not None
                            and self._stopper.update(record.val_f1)):
                        self._stopped = True
                    if self.config.snapshot_path:
                        self.snapshot(self.config.snapshot_path)
            finally:
                self._trap = None
        return self.history

    # ------------------------------------------------------------------ #
    # Crash-resumable state                                                #
    # ------------------------------------------------------------------ #
    def _snapshot_extra(self) -> dict:
        """Trainer-subclass metadata merged into the snapshot header."""
        return {}

    def _restore_extra(self, meta: dict) -> None:
        """Inverse of :meth:`_snapshot_extra`; receives the whole header."""

    def snapshot(self, path: str | os.PathLike) -> None:
        """Atomically capture everything needed to continue this run.

        Model parameters, Adam moments, training history, early-stopping
        state, the epoch/batch cursor (including the in-flight epoch's index
        permutation) and every RNG stream the run consumes (experiment
        fallback, loader shuffle, module-local dropout generators).
        """
        meta = {
            "trainer": type(self).__name__,
            "model": self.model.name,
            "cursor": {
                "epoch": self._epoch,
                "batch": self._batch_in_epoch,
                "epoch_losses": self._epoch_losses,
                "mid_epoch": self._epoch_order is not None,
                "stopped": self._stopped,
            },
            "history": pack_history(self.history),
            "early_stopping": pack_early_stopping(self._stopper),
            "rng": {
                "fallback": get_rng_state(),
                "loader": (self._train_loader.rng_state()
                           if self._train_loader is not None else None),
                "modules": module_rng_states(self.model),
            },
            **self._snapshot_extra(),
        }
        arrays: dict[str, np.ndarray] = {}
        pack_model_state(self.model, arrays)
        pack_adam_state(self.optimizer, meta, arrays)
        if self._epoch_order is not None:
            arrays["epoch_order"] = self._epoch_order
        save_snapshot(path, meta, arrays)

    def resume(self, path: str | os.PathLike,
               train_loader: DataLoader | None = None) -> "Trainer":
        """Restore a run captured by :meth:`snapshot`; returns ``self``.

        Build the trainer exactly as the crashed run did (same model
        construction, same config), then call this before :meth:`fit`.  Pass
        ``train_loader`` to restore its shuffle stream immediately; without
        it, the stream is restored on the next :meth:`fit`/:meth:`train_epoch`
        call.

        A snapshot written by a different trainer class, or for a model of a
        different name, is refused with :class:`SnapshotError` before any
        state changes.
        """
        meta, arrays = load_snapshot(path)
        recorded = (meta.get("trainer"), meta.get("model"))
        expected = (type(self).__name__, self.model.name)
        if recorded != expected:
            raise SnapshotError(
                f"'{os.fspath(path)}' was written by {recorded[0]} training "
                f"model {recorded[1]!r}, but this is {expected[0]} training "
                f"model {expected[1]!r}; resume with the trainer and model "
                "that wrote it")
        unpack_model_state(self.model, arrays)
        unpack_adam_state(self.optimizer, meta, arrays)
        self.history = unpack_history(meta["history"])
        # DTDBDTrainer snapshots from before it shared this loop carry no
        # early-stopping entry; DTDBD never stops early.
        self._stopper = unpack_early_stopping(meta.get("early_stopping"))
        cursor = meta["cursor"]
        self._epoch = int(cursor["epoch"])
        self._stopped = bool(cursor.get("stopped", False))
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
        restore_module_rng_states(self.model, rng["modules"])
        if rng["loader"] is not None:
            if train_loader is not None:
                train_loader.set_rng_state(rng["loader"])
                self._pending_loader_state = None
            else:
                self._pending_loader_state = rng["loader"]
        self._restore_extra(meta)
        return self

    def _apply_pending_loader_state(self, loader: DataLoader) -> None:
        if self._pending_loader_state is not None:
            loader.set_rng_state(self._pending_loader_state)
            self._pending_loader_state = None
