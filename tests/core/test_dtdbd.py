"""The DTDBD trainer and the end-to-end Algorithm-1 pipeline."""

import numpy as np
import pytest

from repro.core import (
    DATConfig,
    DTDBDConfig,
    DTDBDTrainer,
    TrainerConfig,
    Trainer,
    evaluate_model,
    train_unbiased_teacher,
)
from repro.data import DataLoader, make_weibo21_like, stratified_split
from repro.encoders import FrozenPretrainedEncoder, LocalBackend, stock_channels
from repro.models import ModelConfig, build_model
from repro.tensor import default_dtype
from repro.utils import set_global_seed


@pytest.fixture(scope="module")
def teachers(model_config, train_loader):
    """A quickly-trained unbiased teacher and clean teacher shared by the tests."""
    unbiased = build_model("textcnn_s", model_config.with_overrides(seed=21))
    train_unbiased_teacher(unbiased, train_loader, None,
                           config=DATConfig(epochs=2, learning_rate=2e-3))
    clean = build_model("mdfend", model_config.with_overrides(seed=22))
    Trainer(clean, TrainerConfig(epochs=2, learning_rate=2e-3)).fit(train_loader)
    return unbiased, clean


class TestDTDBDTrainerConstruction:
    def test_requires_teachers_for_enabled_losses(self, model_config, teachers):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config)
        with pytest.raises(ValueError):
            DTDBDTrainer(student, None, clean, DTDBDConfig(use_add=True))
        with pytest.raises(ValueError):
            DTDBDTrainer(student, unbiased, None, DTDBDConfig(use_dkd=True))

    def test_teachers_are_frozen(self, model_config, teachers):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config)
        DTDBDTrainer(student, unbiased, clean, DTDBDConfig(epochs=1))
        assert unbiased.parameters() == []
        assert clean.parameters() == []

    def test_constant_scheduler_when_daa_disabled(self, model_config, teachers):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config)
        trainer = DTDBDTrainer(student, unbiased, clean,
                               DTDBDConfig(epochs=1, use_dynamic_adjustment=False,
                                           initial_weight_add=0.4))
        assert trainer.scheduler.weights() == (0.4, 0.6)


class TestDTDBDTraining:
    def test_fit_records_history_and_weights(self, model_config, teachers,
                                             train_loader, val_loader):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config.with_overrides(seed=31))
        trainer = DTDBDTrainer(student, unbiased, clean,
                               DTDBDConfig(epochs=2, learning_rate=2e-3))
        history = trainer.fit(train_loader, val_loader)
        assert len(history) == 2
        assert len(trainer.weight_history) == 3
        for add, dkd in trainer.weight_history:
            assert add + dkd == pytest.approx(1.0)
        assert all("weight_add" in record.extras for record in history)

    def test_non_finite_gradient_leaves_weights_untouched(self, model_config, teachers,
                                                          train_loader, monkeypatch):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config.with_overrides(seed=33))
        extract = student.extract_features
        monkeypatch.setattr(student, "extract_features",
                            lambda batch: extract(batch) * float("nan"))
        before = {name: value.copy() for name, value in student.state_dict().items()}
        trainer = DTDBDTrainer(student, unbiased, clean,
                               DTDBDConfig(epochs=1, learning_rate=2e-3))
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            trainer.fit(train_loader)
        assert trainer.optimizer._step_count == 0
        for name, value in student.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_student_learns_under_distillation(self, model_config, teachers,
                                                train_loader, test_loader):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config.with_overrides(seed=32))
        before = evaluate_model(student, test_loader).overall_f1
        DTDBDTrainer(student, unbiased, clean,
                     DTDBDConfig(epochs=3, learning_rate=2e-3)).fit(train_loader)
        after = evaluate_model(student, test_loader).overall_f1
        assert after > before

    def test_teacher_weights_unchanged_by_distillation(self, model_config, teachers,
                                                       train_loader):
        unbiased, clean = teachers
        unbiased_before = unbiased.state_dict()
        clean_before = clean.state_dict()
        student = build_model("textcnn_s", model_config.with_overrides(seed=33))
        DTDBDTrainer(student, unbiased, clean,
                     DTDBDConfig(epochs=1, learning_rate=2e-3)).fit(train_loader)
        for key, value in unbiased.state_dict().items():
            np.testing.assert_allclose(value, unbiased_before[key])
        for key, value in clean.state_dict().items():
            np.testing.assert_allclose(value, clean_before[key])

    def test_ragged_batch_skips_add_and_surfaces_it(self, model_config, teachers,
                                                    train_loader):
        """A final batch of size 1 cannot form a correlation matrix: the ADD
        term is dropped from that batch's loss (CE + DKD remain), and the skip
        is surfaced in ``components`` so the epoch loss mixture stays
        interpretable."""
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config.with_overrides(seed=60))
        trainer = DTDBDTrainer(student, unbiased, clean,
                               DTDBDConfig(epochs=1, learning_rate=2e-3))
        singleton = train_loader.window(0, 1)
        loss, _, components = trainer._batch_loss(singleton)
        assert components["add"] == 0.0
        assert components["add_skipped"] is True
        assert "ce" in components and "dkd" in components
        assert loss.item() == pytest.approx(
            components["ce"] + trainer.scheduler.weight_dkd * components["dkd"])
        # A regular batch reports a real ADD term and no skip marker.
        full = train_loader.window(0, train_loader.batch_size)
        _, _, components = trainer._batch_loss(full)
        assert components["add"] > 0.0
        assert "add_skipped" not in components

    def test_invalidate_teacher_caches_releases_entries(self, model_config,
                                                        teachers, train_loader):
        unbiased, clean = teachers
        student = build_model("textcnn_s", model_config.with_overrides(seed=61))
        trainer = DTDBDTrainer(student, unbiased, clean,
                               DTDBDConfig(epochs=1, learning_rate=2e-3))
        trainer.train_epoch(train_loader)
        assert trainer._teacher_caches
        trainer.invalidate_teacher_caches(train_loader)
        assert not trainer._teacher_caches
        # Training keeps working after invalidation (caches rebuild lazily).
        assert np.isfinite(trainer.train_epoch(train_loader))
        assert trainer._teacher_caches

    def test_ablation_modes_run(self, model_config, teachers, train_loader):
        unbiased, clean = teachers
        for kwargs in ({"use_add": False}, {"use_dkd": False},
                       {"use_dynamic_adjustment": False}):
            student = build_model("textcnn_s", model_config.with_overrides(seed=40))
            trainer = DTDBDTrainer(student,
                                   None if kwargs.get("use_add") is False else unbiased,
                                   None if kwargs.get("use_dkd") is False else clean,
                                   DTDBDConfig(epochs=1, learning_rate=2e-3, **kwargs))
            history = trainer.fit(train_loader)
            assert np.isfinite(history.train_losses[0])


class TestTeacherCacheEquivalence:
    """Cached and uncached DTDBD training are the *same* computation.

    The frozen-teacher output cache gathers precomputed arrays instead of
    re-running the teachers, and the trainer forwards ragged batches live, so
    the student's loss trajectory and the scheduler's weight history must be
    bit-identical under the same seed — in both dtypes.
    """

    @staticmethod
    def _run(cached: bool, dtype: str):
        with default_dtype(dtype):
            set_global_seed(123)
            dataset = make_weibo21_like(scale=0.04, seed=7)
            splits = stratified_split(dataset, train_fraction=0.6,
                                      val_fraction=0.1, seed=0)
            vocab = splits.train.build_vocabulary()
            encoder = FrozenPretrainedEncoder(len(vocab), output_dim=16, seed=3)
            channels = stock_channels(LocalBackend(encoder))
            train_loader = DataLoader(splits.train, vocab, max_length=16,
                                      batch_size=16, shuffle=True, seed=0,
                                      channels=channels)
            val_loader = DataLoader(splits.val, vocab, max_length=16,
                                    batch_size=16, shuffle=False, seed=0,
                                    channels=channels)
            config = ModelConfig(plm_dim=16, num_domains=dataset.num_domains,
                                 cnn_channels=8, kernel_sizes=(1, 2, 3),
                                 rnn_hidden=8, hidden_dim=16, mlp_hidden=(16,),
                                 num_experts=3, expert_hidden=12,
                                 domain_embedding_dim=6, seed=5)
            student = build_model("textcnn_s", config.with_overrides(seed=31))
            unbiased = build_model("textcnn_s", config.with_overrides(seed=21))
            clean = build_model("mdfend", config.with_overrides(seed=22))
            trainer = DTDBDTrainer(
                student, unbiased, clean,
                DTDBDConfig(epochs=2, learning_rate=2e-3,
                            cache_teacher_outputs=cached))
            history = trainer.fit(train_loader, val_loader)
            return history.train_losses, trainer.weight_history

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_identical_loss_trajectory_and_weight_history(self, dtype):
        cached_losses, cached_weights = self._run(cached=True, dtype=dtype)
        plain_losses, plain_weights = self._run(cached=False, dtype=dtype)
        assert cached_losses == plain_losses
        assert cached_weights == plain_weights


class TestPipeline:
    def test_algorithm_one_end_to_end(self, model_config, train_loader,
                                      val_loader, test_loader):
        """DAT-IE teacher, clean teacher, then distillation, as Algorithm 1 runs them."""
        student = build_model("textcnn_s", model_config.with_overrides(seed=50))
        unbiased_backbone = build_model("textcnn_s", model_config.with_overrides(seed=51))
        clean = build_model("mdfend", model_config.with_overrides(seed=52))
        unbiased, _ = train_unbiased_teacher(
            unbiased_backbone, train_loader, val_loader,
            config=DATConfig(epochs=1, learning_rate=2e-3))
        Trainer(clean, TrainerConfig(epochs=1, learning_rate=2e-3)).fit(
            train_loader, val_loader)
        trainer = DTDBDTrainer(student, unbiased, clean,
                               config=DTDBDConfig(epochs=1, learning_rate=2e-3))
        history = trainer.fit(train_loader, val_loader)
        test_report = evaluate_model(student, test_loader)
        assert trainer.model is student
        assert len(history) == 1
        assert len(trainer.weight_history) == 2
        assert 0.0 <= test_report.overall_f1 <= 1.0
