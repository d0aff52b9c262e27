"""Domain adversarial training (DAT) and the DAT-IE variant."""

import numpy as np
import pytest

from repro.core import DATConfig, DomainAdversarialModel, train_dat_student, train_unbiased_teacher
from repro.core.trainer import evaluate_model
from repro.data import DataLoader, make_weibo21_like, stratified_split
from repro.encoders import FrozenPretrainedEncoder, LocalBackend, stock_channels
from repro.models import ModelConfig, build_model
from repro.nn import Adam, GradientClipper
from repro.tensor import default_dtype, functional as F
from repro.utils import set_global_seed


class TestDATConfig:
    def test_beta_is_fraction_of_alpha(self):
        config = DATConfig(alpha=2.0, beta_ratio=0.2)
        assert config.beta == pytest.approx(0.4)

    def test_defaults_use_information_entropy(self):
        assert DATConfig().use_information_entropy


class TestDomainAdversarialModel:
    def test_wrapper_delegates_prediction(self, model_config, sample_batch):
        backbone = build_model("textcnn_s", model_config)
        wrapper = DomainAdversarialModel(backbone, model_config.num_domains)
        assert wrapper.feature_dim == backbone.feature_dim
        np.testing.assert_allclose(wrapper.predict_proba(sample_batch),
                                   backbone.predict_proba(sample_batch))
        assert wrapper.name.endswith("+dat")

    def test_domain_probabilities_are_distributions(self, model_config, sample_batch):
        backbone = build_model("textcnn_s", model_config)
        wrapper = DomainAdversarialModel(backbone, model_config.num_domains)
        probs = wrapper.domain_probabilities(wrapper.extract_features(sample_batch))
        np.testing.assert_allclose(probs.numpy().sum(axis=1), 1.0, atol=1e-9)

    def test_dat_ie_loss_contains_three_terms(self, model_config, sample_batch):
        backbone = build_model("textcnn_s", model_config)
        with_ie = DomainAdversarialModel(backbone, model_config.num_domains,
                                         config=DATConfig(alpha=1.0, use_information_entropy=True))
        without_ie = DomainAdversarialModel(backbone, model_config.num_domains,
                                            config=DATConfig(alpha=1.0,
                                                             use_information_entropy=False))
        backbone.eval()  # make dropout deterministic so the comparison is exact
        loss_ie, _ = with_ie.compute_loss(sample_batch)
        loss_plain, _ = without_ie.compute_loss(sample_batch)
        # The information-entropy term is negative (its minimum favours uniform
        # domain predictions), so the DAT-IE loss must differ from plain DAT.
        assert loss_ie.item() != pytest.approx(loss_plain.item())

    def test_backward_reaches_backbone_and_domain_head(self, model_config, sample_batch):
        backbone = build_model("textcnn_s", model_config)
        wrapper = DomainAdversarialModel(backbone, model_config.num_domains)
        loss, _ = wrapper.compute_loss(sample_batch)
        loss.backward()
        assert any(p.grad is not None for p in backbone.parameters())
        assert any(p.grad is not None for p in wrapper.domain_classifier.parameters())


class TestTraining:
    def test_train_unbiased_teacher_returns_backbone_in_eval(self, model_config,
                                                             train_loader, val_loader):
        backbone = build_model("textcnn_s", model_config)
        teacher, history = train_unbiased_teacher(
            backbone, train_loader, val_loader,
            config=DATConfig(epochs=2, learning_rate=2e-3))
        assert teacher is backbone
        assert not teacher.training
        assert len(history) == 2
        assert history.records[-1].val_f1 is not None

    def test_train_dat_student_variants(self, model_config, train_loader, test_loader):
        for use_ie in (False, True):
            backbone = build_model("textcnn_s", model_config.with_overrides(seed=7 + use_ie))
            model, _ = train_dat_student(backbone, train_loader, None,
                                         use_information_entropy=use_ie, epochs=2)
            report = evaluate_model(model, test_loader)
            assert 0.0 <= report.overall_f1 <= 1.0

    def test_adversarial_training_learns_label_signal(self, model_config,
                                                      train_loader, test_loader):
        backbone = build_model("textcnn_s", model_config)
        before = evaluate_model(backbone, test_loader).overall_f1
        train_unbiased_teacher(backbone, train_loader, None,
                               config=DATConfig(epochs=3, learning_rate=2e-3))
        after = evaluate_model(backbone, test_loader).overall_f1
        assert after > before


def _reference_dat_ie(backbone, train_loader, config, seed):
    """The hand-written DAT-IE loop ``train_unbiased_teacher`` used to run.

    Kept verbatim as the ground truth for the version that runs through
    :class:`repro.core.trainer.Trainer`.
    """
    wrapper = DomainAdversarialModel(backbone, train_loader.num_domains,
                                     config=config, seed=seed)
    optimizer = Adam(wrapper.parameters(), lr=config.learning_rate)
    clipper = GradientClipper(config.max_grad_norm)
    epoch_losses = []
    for _ in range(config.epochs):
        wrapper.train()
        losses = []
        for batch in train_loader:
            optimizer.zero_grad()
            loss, _ = wrapper.compute_loss(batch)
            loss.backward()
            clipper.clip(optimizer.parameters)
            optimizer.step()
            losses.append(loss.item())
        epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
    backbone.eval()
    return epoch_losses


class TestTrainerParity:
    @staticmethod
    def _world():
        set_global_seed(123)
        dataset = make_weibo21_like(scale=0.04, seed=7)
        splits = stratified_split(dataset, train_fraction=0.6, val_fraction=0.1, seed=0)
        vocab = splits.train.build_vocabulary()
        channels = stock_channels(LocalBackend(
            FrozenPretrainedEncoder(len(vocab), output_dim=16, seed=3)))
        loader = DataLoader(splits.train, vocab, max_length=16, batch_size=16,
                            shuffle=True, seed=0, channels=channels)
        config = ModelConfig(plm_dim=16, num_domains=dataset.num_domains,
                             cnn_channels=8, kernel_sizes=(1, 2, 3), hidden_dim=16,
                             mlp_hidden=(16,), seed=5)
        return loader, build_model("textcnn_s", config)

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_bit_identical_to_the_hand_written_loop(self, dtype):
        config = DATConfig(epochs=2, learning_rate=2e-3)
        with default_dtype(dtype):
            loader, backbone = self._world()
            reference_losses = _reference_dat_ie(backbone, loader, config, seed=4)
            reference = backbone.state_dict()
            loader, backbone = self._world()
            teacher, history = train_unbiased_teacher(backbone, loader, None,
                                                      config=config, seed=4)
        assert history.train_losses == reference_losses
        state = teacher.state_dict()
        assert state.keys() == reference.keys()
        for name, array in reference.items():
            assert state[name].dtype == array.dtype, name
            assert state[name].tobytes() == array.tobytes(), name
