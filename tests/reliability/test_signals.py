"""Graceful shutdown: a real SIGTERM mid-fit snapshots, raises, and resumes.

These tests deliver actual signals to the test process (``os.kill`` on
ourselves).  A fault-plan ``when=`` predicate at the ``trainer.step`` site —
which always returns False, so it never injects anything — is used purely as
a precisely placed hook to fire the signal at a chosen batch.  The handler
only sets a flag; the trainer honours it at the next batch boundary, writes
a final snapshot through the ordinary ``snapshot()`` path, and raises
:class:`TrainingInterrupted` naming the file to resume from.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.core import (
    DTDBDConfig,
    DTDBDTrainer,
    Trainer,
    TrainerConfig,
    TrainingInterrupted,
    trap_termination,
)
from repro.core.dat import DATConfig, train_unbiased_teacher
from repro.models import ModelConfig, build_model
from repro.reliability import FaultPlan, inject
from repro.utils import set_global_seed


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


def _sigterm_at_batch(target_batch: int) -> FaultPlan:
    """A plan whose only effect is sending SIGTERM at the chosen batch."""

    def fire(detail: dict) -> bool:
        if detail.get("batch") == target_batch and detail.get("epoch") == 0:
            os.kill(os.getpid(), signal.SIGTERM)
        return False  # never actually inject a fault

    return FaultPlan().fail("trainer.step", when=fire)


class TestTrainerSignal:
    def test_sigterm_snapshots_and_raises(self, tmp_path, make_world):
        world = make_world()
        snap = str(tmp_path / "trainer.snap")
        trainer, train, val = _build_trainer(
            world, TrainerConfig(epochs=2, learning_rate=2e-3,
                                 snapshot_path=snap))
        with inject(_sigterm_at_batch(3)):
            with pytest.raises(TrainingInterrupted) as excinfo:
                trainer.fit(train, val)
        assert excinfo.value.signal_name == "SIGTERM"
        assert excinfo.value.snapshot_path == snap
        assert "resume with trainer.resume" in str(excinfo.value)
        assert os.path.exists(snap)

    def test_resume_after_sigterm_matches_uninterrupted_run(
            self, tmp_path, make_world):
        """The signal path reuses the ordinary snapshot machinery, so the
        resumed run must be bit-identical to one that was never stopped."""
        world = make_world()
        reference, train, val = _build_trainer(world)
        ref_history = reference.fit(train, val)
        ref_state = reference.model.state_dict()

        snap = str(tmp_path / "trainer.snap")
        interrupted, train, val = _build_trainer(
            world, TrainerConfig(epochs=2, learning_rate=2e-3,
                                 snapshot_path=snap))
        with inject(_sigterm_at_batch(3)):
            with pytest.raises(TrainingInterrupted):
                interrupted.fit(train, val)

        resumed, train, val = _build_trainer(world)
        resumed.resume(snap, train_loader=train)
        history = resumed.fit(train, val)
        assert history.train_losses == ref_history.train_losses
        for name, array in ref_state.items():
            assert np.array_equal(array, resumed.model.state_dict()[name]), name

    def test_sigterm_without_snapshot_path_names_the_fix(self, make_world):
        world = make_world()
        trainer, train, val = _build_trainer(
            world, TrainerConfig(epochs=1, learning_rate=2e-3))
        with inject(_sigterm_at_batch(2)):
            with pytest.raises(TrainingInterrupted,
                               match="set TrainerConfig.snapshot_path"):
                trainer.fit(train, val)

    def test_snapshot_on_signal_false_keeps_default_behaviour(self, make_world):
        """Opting out restores Python's default: SIGINT raises
        KeyboardInterrupt wherever it lands, and nothing is trapped."""
        world = make_world()
        trainer, train, val = _build_trainer(
            world, TrainerConfig(epochs=1, learning_rate=2e-3,
                                 snapshot_on_signal=False))

        def fire(detail: dict) -> bool:
            if detail.get("batch") == 2:
                os.kill(os.getpid(), signal.SIGINT)
            return False

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with inject(FaultPlan().fail("trainer.step", when=fire)):
                with pytest.raises(KeyboardInterrupt):
                    trainer.fit(train, val)
        finally:
            signal.signal(signal.SIGINT, previous)


class TestDTDBDSignal:
    def test_sigterm_snapshots_and_resumes_bit_identically(
            self, tmp_path, make_world):
        world = make_world()
        reference, train, val = _build_dtdbd(world)
        ref_history = reference.fit(train, val)
        ref_state = reference.student.state_dict()

        snap = str(tmp_path / "dtdbd.snap")
        interrupted, train, val = _build_dtdbd(
            world, DTDBDConfig(epochs=2, learning_rate=2e-3,
                               snapshot_path=snap))
        with inject(_sigterm_at_batch(3)):
            with pytest.raises(TrainingInterrupted) as excinfo:
                interrupted.fit(train, val)
        assert excinfo.value.snapshot_path == snap

        resumed, train, val = _build_dtdbd(world)
        resumed.resume(snap, train_loader=train)
        history = resumed.fit(train, val)
        assert history.train_losses == ref_history.train_losses
        for name, array in ref_state.items():
            assert np.array_equal(array, resumed.student.state_dict()[name]), name


class TestTrapPrimitive:
    def test_trap_restores_previous_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with trap_termination() as trap:
            assert not trap.tripped
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_trap_records_first_signal_without_raising(self):
        with trap_termination() as trap:
            os.kill(os.getpid(), signal.SIGTERM)
            # Force the interpreter to run pending signal handlers.
            for _ in range(10):
                pass
            assert trap.tripped
            assert trap.signal_name == "SIGTERM"

    def test_disabled_trap_is_inert(self):
        before = signal.getsignal(signal.SIGTERM)
        with trap_termination(enabled=False) as trap:
            assert signal.getsignal(signal.SIGTERM) is before
            assert not trap.tripped

    def test_trap_from_worker_thread_is_inert(self):
        import threading

        results = {}

        def run():
            with trap_termination() as trap:
                results["tripped"] = trap.tripped

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(10)
        assert results == {"tripped": False}
