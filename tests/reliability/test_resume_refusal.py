"""``resume`` refuses a snapshot written by another trainer or for another model.

``Trainer`` and ``DTDBDTrainer`` share one snapshot layout, so a snapshot of
one could otherwise be half-restored into the other.  The refusal must come
before any state changes: the model weights and Adam moments of the trainer
that refused stay exactly as they were.  A ``DTDBDTrainer`` snapshot in the
older layout (no early-stopping entry, no ``stopped`` cursor flag) still
resumes bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DTDBDConfig,
    DTDBDTrainer,
    SnapshotError,
    Trainer,
    TrainerConfig,
    load_snapshot,
    save_snapshot,
)
from repro.models import build_model
from repro.reliability import FaultPlan, InjectedFault, inject
from repro.utils import set_global_seed


def _trainer(world, name="textcnn_s", config=None):
    set_global_seed(0)
    train, val = world.loaders()
    model = build_model(name, world.config)
    return Trainer(model, config or TrainerConfig(epochs=2, learning_rate=2e-3)), train, val


def _dtdbd(world, config=None):
    set_global_seed(0)
    train, val = world.loaders()
    student = build_model("textcnn_s", world.config)
    unbiased = build_model("textcnn_s", world.config.with_overrides(seed=6))
    clean = build_model("mdfend", world.config.with_overrides(seed=9))
    trainer = DTDBDTrainer(student, unbiased, clean,
                           config or DTDBDConfig(epochs=2, learning_rate=2e-3))
    return trainer, train, val


def _state(trainer) -> dict:
    state = {f"model.{name}": array.copy()
             for name, array in trainer.model.state_dict().items()}
    state["adam.m"] = trainer.optimizer._m_flat.copy()
    state["adam.v"] = trainer.optimizer._v_flat.copy()
    state["adam.steps"] = np.array(trainer.optimizer._step_count)
    return state


def _assert_unchanged(before: dict, trainer) -> None:
    after = _state(trainer)
    assert before.keys() == after.keys()
    for name, array in before.items():
        assert array.tobytes() == after[name].tobytes(), name


def _one_epoch_snapshot(trainer, train, val, path) -> str:
    trainer.config.snapshot_path = str(path)
    trainer.fit(train, val)
    return str(path)


class TestRefusal:
    def test_dtdbd_trainer_refuses_a_trainer_snapshot(self, tmp_path, make_world):
        world = make_world()
        writer, train, val = _trainer(world, config=TrainerConfig(epochs=1, learning_rate=2e-3))
        snap = _one_epoch_snapshot(writer, train, val, tmp_path / "trainer.snap")

        reader, train, val = _dtdbd(world)
        reader.fit(train, val)  # non-trivial weights and Adam moments
        before = _state(reader)
        with pytest.raises(SnapshotError) as error:
            reader.resume(snap, train_loader=train)
        message = str(error.value)
        assert snap in message
        assert "written by Trainer" in message and "this is DTDBDTrainer" in message
        _assert_unchanged(before, reader)

    def test_trainer_refuses_a_dtdbd_snapshot(self, tmp_path, make_world):
        world = make_world()
        writer, train, val = _dtdbd(world, DTDBDConfig(epochs=1, learning_rate=2e-3))
        snap = _one_epoch_snapshot(writer, train, val, tmp_path / "dtdbd.snap")

        reader, train, val = _trainer(world)
        reader.fit(train, val)
        before = _state(reader)
        with pytest.raises(SnapshotError) as error:
            reader.resume(snap, train_loader=train)
        message = str(error.value)
        assert snap in message
        assert "written by DTDBDTrainer" in message and "this is Trainer" in message
        _assert_unchanged(before, reader)

    def test_trainer_refuses_a_snapshot_of_another_model(self, tmp_path, make_world):
        world = make_world()
        writer, train, val = _trainer(world, config=TrainerConfig(epochs=1, learning_rate=2e-3))
        snap = _one_epoch_snapshot(writer, train, val, tmp_path / "trainer.snap")

        reader, train, val = _trainer(world, name="bigru")
        before = _state(reader)
        with pytest.raises(SnapshotError, match="'textcnn_s'.*'bigru'"):
            reader.resume(snap)
        _assert_unchanged(before, reader)


def test_older_layout_dtdbd_snapshot_resumes_bit_identically(tmp_path, make_world):
    world = make_world()
    reference, train, val = _dtdbd(world)
    ref_losses = reference.fit(train, val).train_losses
    ref_weights = list(reference.weight_history)
    ref_state = reference.model.state_dict()

    snap = str(tmp_path / "dtdbd.snap")
    crashed, train, val = _dtdbd(world, DTDBDConfig(epochs=2, learning_rate=2e-3,
                                                    snapshot_path=snap, snapshot_every=1))
    with pytest.raises(InjectedFault):
        with inject(FaultPlan().fail("trainer.step", after=len(train) + 3)):
            crashed.fit(train, val)

    # Rewrite the snapshot in the layout DTDBDTrainer wrote before it ran on
    # the shared Trainer loop: no early-stopping entry, no ``stopped`` flag.
    meta, arrays = load_snapshot(snap)
    del meta["early_stopping"]
    del meta["cursor"]["stopped"]
    save_snapshot(snap, meta, arrays)

    resumed, train, val = _dtdbd(world)
    resumed.resume(snap, train_loader=train)
    assert resumed.fit(train, val).train_losses == ref_losses
    assert resumed.weight_history == ref_weights
    for name, array in ref_state.items():
        assert resumed.model.state_dict()[name].tobytes() == array.tobytes(), name
