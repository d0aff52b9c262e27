"""Generic trainer, evaluation helpers, history and early stopping."""

import numpy as np
import pytest

from repro.core import (
    EarlyStopping,
    EpochRecord,
    Trainer,
    TrainerConfig,
    TrainingHistory,
    collect_features,
    evaluate_model,
)
from repro.models import build_model


class TestTrainer:
    def test_loss_decreases_over_epochs(self, model_config, train_loader):
        model = build_model("textcnn_s", model_config)
        trainer = Trainer(model, TrainerConfig(epochs=3, learning_rate=2e-3))
        history = trainer.fit(train_loader)
        assert len(history) == 3
        assert history.train_losses[-1] < history.train_losses[0]

    def test_non_finite_gradient_leaves_weights_untouched(self, model_config,
                                                          train_loader, monkeypatch):
        model = build_model("textcnn_s", model_config)
        extract = model.extract_features
        monkeypatch.setattr(model, "extract_features",
                            lambda batch: extract(batch) * float("nan"))
        before = {name: value.copy() for name, value in model.state_dict().items()}
        trainer = Trainer(model, TrainerConfig(epochs=1, learning_rate=2e-3))
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            trainer.fit(train_loader)
        assert trainer.optimizer._step_count == 0
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_validation_metrics_recorded(self, model_config, train_loader, val_loader):
        model = build_model("bert", model_config)
        trainer = Trainer(model, TrainerConfig(epochs=2, learning_rate=2e-3))
        history = trainer.fit(train_loader, val_loader)
        assert all(record.val_f1 is not None for record in history)
        assert all(record.val_total_bias is not None for record in history)

    def test_training_improves_over_untrained(self, model_config, train_loader, test_loader):
        untrained = build_model("textcnn_s", model_config)
        report_before = evaluate_model(untrained, test_loader)
        trained = build_model("textcnn_s", model_config)
        Trainer(trained, TrainerConfig(epochs=3, learning_rate=2e-3)).fit(train_loader)
        report_after = evaluate_model(trained, test_loader)
        assert report_after.overall_f1 > report_before.overall_f1

    def test_early_stopping_limits_epochs(self, model_config, train_loader, val_loader):
        model = build_model("bert", model_config)
        trainer = Trainer(model, TrainerConfig(epochs=10, learning_rate=1e-5,
                                               early_stopping_patience=1))
        history = trainer.fit(train_loader, val_loader)
        assert len(history) < 10


class TestEvaluateModel:
    def test_report_structure(self, model_config, test_loader):
        model = build_model("textcnn_s", model_config)
        report = evaluate_model(model, test_loader, model_name="probe")
        assert report.model == "probe"
        assert set(report.per_domain_f1) == set(test_loader.dataset.domain_names)
        assert 0.0 <= report.overall_f1 <= 1.0

    def test_collect_features(self, model_config, test_loader):
        model = build_model("textcnn_s", model_config)
        features, labels, domains = collect_features(model, test_loader, max_items=20)
        assert features.shape == (20, model.feature_dim)
        assert labels.shape == (20,) and domains.shape == (20,)

    def test_collect_features_full(self, model_config, val_loader):
        model = build_model("bert", model_config)
        features, labels, _ = collect_features(model, val_loader)
        assert features.shape[0] == len(val_loader.dataset)


class TestHistory:
    def test_best_epoch(self):
        history = TrainingHistory()
        history.append(EpochRecord(epoch=0, train_loss=1.0, val_f1=0.5, val_total_bias=1.0))
        history.append(EpochRecord(epoch=1, train_loss=0.8, val_f1=0.7, val_total_bias=0.8))
        history.append(EpochRecord(epoch=2, train_loss=0.7, val_f1=0.6, val_total_bias=0.5))
        assert history.best_epoch("val_f1").epoch == 1
        assert history.best_epoch("val_total_bias", maximize=False).epoch == 2
        assert history.val_f1s == [0.5, 0.7, 0.6]

    def test_best_epoch_empty(self):
        assert TrainingHistory().best_epoch() is None


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0.5)
        assert not stopper.update(0.49)
        assert stopper.update(0.48)

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5)
        stopper.update(0.4)
        assert not stopper.update(0.6)
        assert stopper.stale_epochs == 0

    def test_minimize_mode(self):
        stopper = EarlyStopping(patience=1, maximize=False)
        stopper.update(1.0)
        assert not stopper.update(0.5)
        assert stopper.update(0.6)

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
