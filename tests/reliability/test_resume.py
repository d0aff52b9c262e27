"""Kill-at-batch-k-then-resume must be bit-identical, in both engine dtypes.

Each scenario runs three times from the same seeds: an uninterrupted
reference, a run killed mid-epoch by an injected fault at the
``trainer.step`` site (with per-batch snapshots on), and a fresh process
image that resumes from the last snapshot.  Loss trajectories, final
parameters and (for DTDBD) the momentum weight history must match the
reference exactly — same bits, not just close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DTDBDConfig, DTDBDTrainer, Trainer, TrainerConfig
from repro.core.dat import DATConfig, train_unbiased_teacher
from repro.models import ModelConfig, build_model
from repro.reliability import FaultPlan, InjectedFault, inject
from repro.tensor import default_dtype
from repro.utils import set_global_seed

DTYPES = ["float64", "float32"]


def _build_trainer(world, config=None):
    set_global_seed(0)
    model = build_model("textcnn_s", world.config)
    train, val = world.loaders()
    return Trainer(model, config or TrainerConfig(epochs=2, learning_rate=2e-3)), train, val


def _build_dtdbd(world, config=None):
    set_global_seed(0)
    train, val = world.loaders()
    student = build_model("textcnn_s", world.config)
    backbone = build_model("textcnn_s", ModelConfig(**{**world.config.to_dict(), "seed": 6}))
    unbiased, _ = train_unbiased_teacher(backbone, train, val,
                                         config=DATConfig(epochs=1), seed=0)
    clean = build_model("mdfend", ModelConfig(**{**world.config.to_dict(), "seed": 9}))
    Trainer(clean, TrainerConfig(epochs=1, learning_rate=2e-3)).fit(train)
    trainer = DTDBDTrainer(student, unbiased, clean,
                           config or DTDBDConfig(epochs=2, learning_rate=2e-3))
    return trainer, train, val


def _assert_states_equal(reference: dict, resumed: dict) -> None:
    assert reference.keys() == resumed.keys()
    for name, array in reference.items():
        assert array.dtype == resumed[name].dtype, name
        assert np.array_equal(array, resumed[name]), f"param {name} differs"


@pytest.mark.parametrize("dtype", DTYPES)
class TestTrainerResume:
    def test_kill_at_batch_k_then_resume_is_bit_identical(self, dtype, tmp_path, make_world):
        with default_dtype(dtype):
            world = make_world()
            reference, train, val = _build_trainer(world)
            ref_history = reference.fit(train, val)
            ref_state = reference.model.state_dict()

            snap = str(tmp_path / "trainer.snap")
            crashed, train, val = _build_trainer(
                world, TrainerConfig(epochs=2, learning_rate=2e-3,
                                     snapshot_path=snap, snapshot_every=1))
            plan = FaultPlan().fail("trainer.step", after=5)
            with pytest.raises(InjectedFault):
                with inject(plan):
                    crashed.fit(train, val)
            assert plan.events[0].call_index == 5

            resumed, train, val = _build_trainer(world)
            resumed.resume(snap, train_loader=train)
            history = resumed.fit(train, val)

            assert history.train_losses == ref_history.train_losses
            assert [r.epoch for r in history] == [r.epoch for r in ref_history]
            _assert_states_equal(ref_state, resumed.model.state_dict())

    def test_kill_at_epoch_boundary_then_resume(self, dtype, tmp_path, make_world):
        """Crashing in epoch 1 resumes from the epoch-0 end-of-epoch snapshot."""
        with default_dtype(dtype):
            world = make_world()
            reference, train, val = _build_trainer(world)
            ref_losses = reference.fit(train, val).train_losses

            batches = len(train)
            snap = str(tmp_path / "trainer.snap")
            crashed, train, val = _build_trainer(
                world, TrainerConfig(epochs=2, learning_rate=2e-3, snapshot_path=snap))
            with pytest.raises(InjectedFault):
                with inject(FaultPlan().fail("trainer.step", after=batches + 1)):
                    crashed.fit(train, val)

            resumed, train, val = _build_trainer(world)
            resumed.resume(snap, train_loader=train)
            assert resumed.fit(train, val).train_losses == ref_losses


@pytest.mark.parametrize("dtype", DTYPES)
class TestDTDBDResume:
    def test_kill_at_batch_k_then_resume_is_bit_identical(self, dtype, tmp_path, make_world):
        with default_dtype(dtype):
            world = make_world()
            reference, train, val = _build_dtdbd(world)
            ref_history = reference.fit(train, val)
            ref_weights = list(reference.weight_history)
            ref_state = reference.student.state_dict()

            snap = str(tmp_path / "dtdbd.snap")
            crashed, train, val = _build_dtdbd(
                world, DTDBDConfig(epochs=2, learning_rate=2e-3,
                                   snapshot_path=snap, snapshot_every=1))
            with pytest.raises(InjectedFault):
                with inject(FaultPlan().fail("trainer.step", after=7)):
                    crashed.fit(train, val)

            resumed, train, val = _build_dtdbd(world)
            resumed.resume(snap, train_loader=train)
            history = resumed.fit(train, val)

            assert history.train_losses == ref_history.train_losses
            assert resumed.weight_history == ref_weights
            _assert_states_equal(ref_state, resumed.student.state_dict())


class TestSnapshotRobustness:
    def test_crash_during_snapshot_write_keeps_previous_snapshot(self, tmp_path, make_world):
        """An injected crash *inside* the snapshot write must not poison resume."""
        world = make_world()
        reference, train, val = _build_trainer(world)
        ref_losses = reference.fit(train, val).train_losses

        snap = str(tmp_path / "trainer.snap")
        crashed, train, val = _build_trainer(
            world, TrainerConfig(epochs=2, learning_rate=2e-3,
                                 snapshot_path=snap, snapshot_every=1))
        plan = FaultPlan().fail("io.write", after=3,
                                when=lambda d: d.get("path") == snap)
        with pytest.raises(InjectedFault):
            with inject(plan):
                crashed.fit(train, val)

        # the atomically written snapshot from the batch before is intact
        resumed, train, val = _build_trainer(world)
        resumed.resume(snap, train_loader=train)
        assert resumed.fit(train, val).train_losses == ref_losses

    def test_resume_without_loader_defers_rng_restore(self, tmp_path, make_world):
        """``resume(path)`` then ``fit(loader)`` equals ``resume(path, loader)``."""
        world = make_world()
        reference, train, val = _build_trainer(world)
        ref_losses = reference.fit(train, val).train_losses

        snap = str(tmp_path / "trainer.snap")
        crashed, train, val = _build_trainer(
            world, TrainerConfig(epochs=2, learning_rate=2e-3,
                                 snapshot_path=snap, snapshot_every=1))
        with pytest.raises(InjectedFault):
            with inject(FaultPlan().fail("trainer.step", after=4)):
                crashed.fit(train, val)

        resumed, train, val = _build_trainer(world)
        resumed.resume(snap)
        assert resumed.fit(train, val).train_losses == ref_losses
