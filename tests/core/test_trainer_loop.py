"""The one training loop: ``Trainer`` and the stages that run through it.

``DTDBDTrainer`` and DAT-IE teacher training reuse ``Trainer``'s epoch loop,
step, snapshots and resume.  These tests pin that contract: what a subclass
may override and what it inherits, which settings the loop reads from a
stage's config, how a step goes through the instance's own ``train_epoch``
and optimizer (the benchmark swaps both on the instance), what the verbose
line and the snapshot header carry, and that each stage still computes bit
for bit what its hand-written loop computed.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DATConfig,
    DTDBDConfig,
    DTDBDTrainer,
    Trainer,
    TrainerConfig,
    load_snapshot,
    train_unbiased_teacher,
)
from repro.core.trainer import evaluate_model
from repro.data import DataLoader, make_weibo21_like, stratified_split
from repro.encoders import FrozenPretrainedEncoder, LocalBackend, stock_channels
from repro.models import ModelConfig, build_model
from repro.nn import Adam, GradientClipper
from repro.reliability import FaultPlan, inject
from repro.tensor import default_dtype
from repro.utils import set_global_seed

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"

#: What a training stage inherits from ``Trainer`` and must not redefine.
LOOP_METHODS = ("train_epoch", "fit", "snapshot", "resume", "_maybe_interrupt",
                "export_pipeline", "_training_step")


def _build(kind: str, model_config, epochs: int = 2, **overrides):
    """A ``Trainer`` or a ``DTDBDTrainer`` (with untrained, frozen teachers)."""
    set_global_seed(0)
    student = build_model("textcnn_s", model_config)
    if kind == "trainer":
        return Trainer(student, TrainerConfig(epochs=epochs, learning_rate=2e-3,
                                              **overrides))
    unbiased = build_model("textcnn_s", model_config.with_overrides(seed=21))
    clean = build_model("mdfend", model_config.with_overrides(seed=22))
    return DTDBDTrainer(student, unbiased, clean,
                        DTDBDConfig(epochs=epochs, learning_rate=2e-3, **overrides))


def _weights(model) -> dict[str, bytes]:
    return {name: array.tobytes() for name, array in model.state_dict().items()}


class TestOneLoop:
    def test_dtdbd_trainer_inherits_the_loop(self):
        assert issubclass(DTDBDTrainer, Trainer)
        redefined = [name for name in LOOP_METHODS if name in vars(DTDBDTrainer)]
        assert not redefined

    def test_optimizer_step_is_called_once_under_core(self):
        calls = []
        for path in sorted(CORE.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "step"
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "optimizer"):
                    calls.append(f"{path.name}:{node.lineno}")
        assert len(calls) == 1 and calls[0].startswith("trainer.py:"), calls

    @pytest.mark.parametrize("setting",
                             [field.name for field in dataclasses.fields(TrainerConfig)])
    def test_dtdbd_config_supplies_every_trainer_setting(self, setting):
        assert hasattr(DTDBDConfig(), setting)

    def test_dtdbd_fixed_settings_are_not_constructor_fields(self, model_config):
        fields = {field.name for field in dataclasses.fields(DTDBDConfig)}
        assert "weight_decay" not in fields
        assert "early_stopping_patience" not in fields
        trainer = _build("dtdbd", model_config)
        assert trainer.optimizer.weight_decay == 0.0
        assert trainer._stopper is None

    def test_student_is_a_read_only_alias_of_model(self, model_config):
        trainer = _build("dtdbd", model_config)
        assert trainer.student is trainer.model
        with pytest.raises(AttributeError):
            trainer.student = build_model("textcnn_s", model_config)


class TestStep:
    def test_loss_hook_decides_what_a_step_optimises(self, model_config, train_loader):
        class ZeroLoss(Trainer):
            def _loss(self, batch):
                loss, _ = self.model.compute_loss(batch)
                return loss * 0.0

        set_global_seed(0)
        frozen = ZeroLoss(build_model("textcnn_s", model_config),
                          TrainerConfig(epochs=1, learning_rate=2e-3))
        before = _weights(frozen.model)
        frozen.fit(train_loader)
        assert _weights(frozen.model) == before
        assert frozen.optimizer._step_count == len(train_loader)

        plain = _build("trainer", model_config, epochs=1)
        before = _weights(plain.model)
        plain.fit(train_loader)
        assert _weights(plain.model) != before

    def test_training_step_is_one_update_returning_the_loss(self, model_config,
                                                            sample_batch):
        trainer = _build("trainer", model_config)
        trainer.model.eval()  # deterministic dropout: the two losses must agree
        expected = trainer._loss(sample_batch).item()
        assert trainer._training_step(sample_batch) == expected
        assert trainer.optimizer._step_count == 1

    @pytest.mark.parametrize("kind", ["trainer", "dtdbd"])
    def test_fit_calls_train_epoch_through_the_instance(self, kind, model_config,
                                                        train_loader):
        trainer = _build(kind, model_config)
        seen = []
        original = trainer.train_epoch

        def counted(loader):
            seen.append(loader)
            return original(loader)

        trainer.train_epoch = counted
        trainer.fit(train_loader)
        assert seen == [train_loader, train_loader]

    @pytest.mark.parametrize("kind", ["trainer", "dtdbd"])
    def test_every_batch_steps_the_instance_optimizer(self, kind, model_config,
                                                      train_loader):
        trainer = _build(kind, model_config)
        steps = []
        original = trainer.optimizer.step

        def counted():
            steps.append(1)
            original()

        trainer.optimizer.step = counted
        trainer.fit(train_loader)
        assert len(steps) == 2 * len(train_loader)

    def test_trainer_step_fault_point_covers_dat_ie_training(self, model_config,
                                                             train_loader):
        details = []
        plan = FaultPlan().stall("trainer.step", delay_s=0.0, times=None,
                                 when=lambda detail: details.append(detail) or True)
        with inject(plan):
            train_unbiased_teacher(build_model("textcnn_s", model_config),
                                   train_loader, None,
                                   config=DATConfig(epochs=2, learning_rate=2e-3))
        expected = [{"epoch": epoch, "batch": batch}
                    for epoch in range(2) for batch in range(len(train_loader))]
        assert details == expected
        assert plan.fired == len(expected)


class TestEpochRecords:
    @pytest.mark.parametrize("kind", ["trainer", "dtdbd"])
    def test_verbose_epoch_line(self, kind, model_config, train_loader, val_loader,
                                capsys):
        trainer = _build(kind, model_config, epochs=1, verbose=True)
        record = trainer.fit(train_loader, val_loader).records[0]
        line = capsys.readouterr().out.strip()
        expected = (f"[textcnn_s] epoch 0: loss={record.train_loss:.4f}, "
                    f"F1={record.val_f1:.3f}, bias={record.val_total_bias:.3f}")
        if kind == "dtdbd":
            expected += (f", weight_add={trainer.scheduler.weight_add:.2f}"
                         f", weight_dkd={trainer.scheduler.weight_dkd:.2f}")
        assert line == expected

    def test_dtdbd_records_the_epoch_weights_as_extras(self, model_config,
                                                       train_loader, val_loader):
        trainer = _build("dtdbd", model_config)
        history = trainer.fit(train_loader, val_loader)
        assert len(trainer.weight_history) == 3
        for record, weights in zip(history.records, trainer.weight_history[1:]):
            assert (record.extras["weight_add"], record.extras["weight_dkd"]) == weights

    def test_dtdbd_without_validation_keeps_the_weights(self, model_config,
                                                        train_loader):
        trainer = _build("dtdbd", model_config)
        history = trainer.fit(train_loader)
        assert trainer.weight_history == [trainer.weight_history[0]] * 3
        assert all(record.val_f1 is None for record in history.records)


class TestSnapshotHeader:
    def test_trainer_header(self, tmp_path, model_config, train_loader):
        path = str(tmp_path / "trainer.snap")
        _build("trainer", model_config, epochs=1, snapshot_path=path).fit(train_loader)
        meta, _ = load_snapshot(path)
        assert (meta["trainer"], meta["model"]) == ("Trainer", "textcnn_s")
        assert "scheduler" not in meta and "weight_history" not in meta
        assert "extra" not in meta

    def test_dtdbd_extras_are_merged_into_the_header(self, tmp_path, model_config,
                                                     train_loader, val_loader):
        path = str(tmp_path / "dtdbd.snap")
        trainer = _build("dtdbd", model_config, epochs=1, snapshot_path=path)
        trainer.fit(train_loader, val_loader)
        meta, _ = load_snapshot(path)
        assert (meta["trainer"], meta["model"]) == ("DTDBDTrainer", "textcnn_s")
        assert "extra" not in meta
        assert meta["early_stopping"] is None
        assert [tuple(weights) for weights in meta["weight_history"]] == \
            trainer.weight_history
        assert meta["scheduler"]


# --------------------------------------------------------------------------- #
# Bit parity with the hand-written loops each stage ran before sharing Trainer #
# --------------------------------------------------------------------------- #
def _parity_world():
    set_global_seed(123)
    dataset = make_weibo21_like(scale=0.04, seed=7)
    splits = stratified_split(dataset, train_fraction=0.6, val_fraction=0.1, seed=0)
    vocab = splits.train.build_vocabulary()
    channels = stock_channels(LocalBackend(
        FrozenPretrainedEncoder(len(vocab), output_dim=16, seed=3)))
    train = DataLoader(splits.train, vocab, max_length=16, batch_size=16,
                       shuffle=True, seed=0, channels=channels)
    val = DataLoader(splits.val, vocab, max_length=16, batch_size=16,
                     shuffle=False, seed=0, channels=channels)
    config = ModelConfig(plm_dim=16, num_domains=dataset.num_domains,
                         cnn_channels=8, kernel_sizes=(1, 2, 3), rnn_hidden=8,
                         hidden_dim=16, mlp_hidden=(16,), num_experts=3,
                         expert_hidden=12, domain_embedding_dim=6, seed=5)
    return train, val, config


def _reference_trainer(model, train_loader, val_loader, config):
    """``Trainer.fit``'s loop as written before the ``_loss`` hook existed."""
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    clipper = GradientClipper(config.max_grad_norm)
    losses, f1s = [], []
    for _ in range(config.epochs):
        model.train()
        epoch_losses = []
        for batch in train_loader.iter_from(train_loader.epoch_order()):
            optimizer.zero_grad()
            loss, _ = model.compute_loss(batch)
            loss.backward()
            clipper.clip(optimizer.parameters)
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
        f1s.append(evaluate_model(model, val_loader).overall_f1)
    return losses, f1s


def _reference_dtdbd(trainer, train_loader, val_loader):
    """``DTDBDTrainer``'s own epoch loop before it subclassed ``Trainer``.

    Uses the trainer only for its parts (optimizer, clipper, Eq. 13 batch
    loss, teacher caches, weight scheduler); the loop itself is hand-written.
    """
    losses = []
    for epoch in range(trainer.config.epochs):
        trainer.student.train()
        unbiased_cache, clean_cache = trainer.teacher_caches(train_loader)
        epoch_losses = []
        for batch in train_loader.iter_from(train_loader.epoch_order()):
            trainer.optimizer.zero_grad()
            loss, _, _ = trainer._batch_loss(batch, unbiased_cache, clean_cache)
            loss.backward()
            trainer.clipper.clip(trainer.optimizer.parameters)
            trainer.optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
        report = evaluate_model(trainer.student, val_loader)
        trainer.scheduler.update(epoch, report.overall_f1, report.total)
        trainer.weight_history.append(trainer.scheduler.weights())
    return losses


def _assert_same_weights(model, reference: dict) -> None:
    state = model.state_dict()
    assert state.keys() == reference.keys()
    for name, array in reference.items():
        assert state[name].dtype == array.dtype, name
        assert state[name].tobytes() == array.tobytes(), name


class TestHandWrittenParity:
    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_trainer_matches_the_hand_written_loop(self, dtype):
        config = TrainerConfig(epochs=2, learning_rate=2e-3)
        with default_dtype(dtype):
            train, val, model_config = _parity_world()
            model = build_model("bigru", model_config)
            reference_losses, reference_f1s = _reference_trainer(model, train, val, config)
            reference = model.state_dict()
            train, val, model_config = _parity_world()
            model = build_model("bigru", model_config)
            history = Trainer(model, config).fit(train, val)
        assert history.train_losses == reference_losses
        assert [record.val_f1 for record in history.records] == reference_f1s
        _assert_same_weights(model, reference)

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_dtdbd_matches_the_hand_written_loop(self, dtype):
        def trainer(model_config):
            student = build_model("textcnn_s", model_config.with_overrides(seed=31))
            unbiased = build_model("textcnn_s", model_config.with_overrides(seed=21))
            clean = build_model("mdfend", model_config.with_overrides(seed=22))
            return DTDBDTrainer(student, unbiased, clean,
                                DTDBDConfig(epochs=2, learning_rate=2e-3))

        with default_dtype(dtype):
            train, val, model_config = _parity_world()
            reference_trainer = trainer(model_config)
            reference_losses = _reference_dtdbd(reference_trainer, train, val)
            reference = reference_trainer.student.state_dict()
            train, val, model_config = _parity_world()
            subject = trainer(model_config)
            history = subject.fit(train, val)
        assert history.train_losses == reference_losses
        assert subject.weight_history == reference_trainer.weight_history
        _assert_same_weights(subject.student, reference)
