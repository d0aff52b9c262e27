"""Pipeline artifact round-trips: save → load → predict must be bit-identical.

Covers the three model provenances the serving API promises to round-trip —
a plain baseline, a DTDBD-distilled student and a user-registered custom
detector — in both engine dtypes, plus the artifact error paths and the
versioned weights container.
"""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from repro.core import DTDBDConfig, DTDBDTrainer
from repro.data import MultiDomainNewsDataset, NewsItem
from repro.models import (
    FakeNewsDetector,
    available_models,
    build_model,
    register_model,
    registry_name,
)
from repro.models.base import pooled_plm
from repro.nn import WEIGHTS_FORMAT_VERSION, CheckpointError, save_checkpoint
from repro.nn.serialization import MAGIC, checkpoint_bytes, decode_weights
from repro.serve import (
    CHECKSUMS_FILE,
    MANIFEST_FILE,
    PIPELINE_FORMAT_VERSION,
    WEIGHTS_FILE,
    Pipeline,
    PipelineError,
    load_pipeline,
    save_pipeline,
)
from repro.tensor import default_dtype

DTYPES = ("float64", "float32")


class UnitCustomDetector(FakeNewsDetector):
    """Minimal user-defined detector used to prove custom models round-trip."""

    name = "unit_serve_custom"

    def __init__(self, config):
        super().__init__(config)
        rng = np.random.default_rng(config.seed)
        self.classifier = self._build_classifier(config.plm_dim, rng)

    @property
    def feature_dim(self):
        return self.config.plm_dim

    def extract_features(self, batch):
        return pooled_plm(batch)


@pytest.fixture(scope="module", autouse=True)
def _custom_model_registration():
    """Register the custom detector for this module, leave no global trace."""
    from repro.models import registry

    if "unit_serve_custom" not in available_models():
        register_model("unit_serve_custom", UnitCustomDetector)
    yield
    registry._REGISTRY.pop("unit_serve_custom", None)


@pytest.fixture(scope="module")
def probe_texts(tiny_splits):
    items = tiny_splits.test.items[:6]
    return [item.text for item in items], [item.domain for item in items]


def _build(name, model_config, dtype):
    with default_dtype(dtype):
        return build_model(name, model_config)


def _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset):
    return Pipeline.from_training(model, tiny_vocab, tiny_encoder, max_length=16,
                                  domain_names=tiny_dataset.domain_names)


def _reseal(path, name):
    """Record ``name``'s current bytes in the checksum sidecar, as a
    (hypothetical) different exporter would have written them."""
    from repro.reliability import sha256_file

    checksums_path = os.path.join(path, CHECKSUMS_FILE)
    with open(checksums_path) as handle:
        checksums = json.load(handle)
    checksums[name] = sha256_file(os.path.join(path, name))
    with open(checksums_path, "w") as handle:
        json.dump(checksums, handle)


def _rewrite_manifest(path, mutate):
    """Edit the manifest; the checksum sidecar stays consistent with the bytes."""
    manifest_path = os.path.join(path, MANIFEST_FILE)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    mutate(manifest)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    _reseal(path, MANIFEST_FILE)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ("textcnn_s", "unit_serve_custom"))
class TestRoundTrip:
    def test_save_load_predict_bit_identical(self, name, dtype, model_config,
                                             tiny_vocab, tiny_encoder, tiny_dataset,
                                             probe_texts, tmp_path):
        texts, domains = probe_texts
        model = _build(name, model_config, dtype)
        pipeline = _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset)
        assert pipeline.dtype == dtype
        expected = pipeline.predictor().predict_proba(texts, domains=domains)
        assert expected.dtype == np.dtype(dtype)

        path = save_pipeline(pipeline, tmp_path / "artifact")
        loaded = load_pipeline(path)
        assert loaded.model_name == name
        assert loaded.dtype == dtype
        assert loaded.max_length == 16
        assert loaded.domain_names == tiny_dataset.domain_names
        restored = loaded.predictor().predict_proba(texts, domains=domains)
        np.testing.assert_array_equal(restored, expected)

    def test_loaded_model_parameters_bitwise_equal(self, name, dtype, model_config,
                                                   tiny_vocab, tiny_encoder,
                                                   tiny_dataset, tmp_path):
        model = _build(name, model_config, dtype)
        pipeline = _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset)
        loaded = load_pipeline(save_pipeline(pipeline, tmp_path / "artifact"))
        source_state = model.state_dict()
        for key, value in loaded.model.state_dict().items():
            assert value.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(value, source_state[key])


@pytest.mark.parametrize("dtype", DTYPES)
def test_dtdbd_student_round_trips(dtype, model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, train_loader, probe_texts, tmp_path):
    """The paper's deployable artifact — a distilled student — must round-trip."""
    texts, domains = probe_texts
    with default_dtype(dtype):
        student = build_model("textcnn_s", model_config)
        unbiased = build_model("textcnn_s", model_config.with_overrides(seed=11))
        clean = build_model("mdfend", model_config.with_overrides(seed=12))
        trainer = DTDBDTrainer(student, unbiased, clean,
                               DTDBDConfig(epochs=1, learning_rate=1e-3))
        trainer.fit(train_loader)
    path = trainer.export_pipeline(tmp_path / "student", vocab=tiny_vocab,
                                   encoder=tiny_encoder, max_length=16,
                                   domain_names=tiny_dataset.domain_names)
    pipeline = load_pipeline(path)
    assert pipeline.model_name == "textcnn_s"
    assert pipeline.dtype == dtype
    expected = Pipeline.from_training(
        student, tiny_vocab, tiny_encoder, max_length=16,
        domain_names=tiny_dataset.domain_names).predictor().predict_proba(
            texts, domains=domains)
    np.testing.assert_array_equal(
        pipeline.predictor().predict_proba(texts, domains=domains), expected)


class TestArtifactFormat:
    def test_manifest_contents(self, model_config, tiny_vocab, tiny_encoder,
                               tiny_dataset, tmp_path):
        model = _build("textcnn_s", model_config, "float64")
        pipeline = _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset)
        path = save_pipeline(pipeline, tmp_path / "artifact")
        with open(os.path.join(path, MANIFEST_FILE)) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == PIPELINE_FORMAT_VERSION
        assert manifest["model"]["name"] == "textcnn_s"
        assert manifest["model"]["config"]["plm_dim"] == model_config.plm_dim
        assert manifest["dtype"] == "float64"
        assert manifest["tokenizer"]["kind"] == "whitespace"
        assert manifest["encoder_backend"]["kind"] == "local"
        assert manifest["encoder_backend"]["encoder"]["vocab_size"] == len(tiny_vocab)
        assert manifest["feature_channels"] == [
            {"kind": "plm"}, {"kind": "style"}, {"kind": "emotion"}]
        assert manifest["labels"] == ["real", "fake"]

    def test_missing_artifact_errors(self, tmp_path):
        with pytest.raises(PipelineError, match="no pipeline artifact"):
            load_pipeline(tmp_path / "nowhere")

    def test_malformed_artifact_raises_pipeline_error(self, model_config, tiny_vocab,
                                                      tiny_encoder, tiny_dataset,
                                                      tmp_path):
        """Any broken piece — files or specs — surfaces as PipelineError.

        Byte-level damage is refused up-front as a checksum mismatch (more
        in tests/reliability/).  Each block below then re-seals the damaged
        file in the sidecar, so the deeper, piece-specific error paths stay
        exercised.
        """
        model = _build("textcnn_s", model_config, "float64")
        path = save_pipeline(
            _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset),
            tmp_path / "artifact")
        os.remove(os.path.join(path, "vocab.json"))
        with pytest.raises(PipelineError, match="checksum mismatch"):
            load_pipeline(path)
        with open(os.path.join(path, "vocab.json"), "w") as handle:
            handle.write("{not json")
        _reseal(path, "vocab.json")
        with pytest.raises(PipelineError, match="malformed"):
            load_pipeline(path)

        path = save_pipeline(
            _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset),
            tmp_path / "artifact2")
        _rewrite_manifest(
            path, lambda m: m.update(tokenizer={"kind": "sentencepiece"}))
        with pytest.raises(PipelineError, match="malformed"):
            load_pipeline(path)

        path = save_pipeline(
            _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset),
            tmp_path / "artifact3")
        with open(os.path.join(path, WEIGHTS_FILE), "wb") as handle:
            handle.write(b"not an npz archive")
        _reseal(path, WEIGHTS_FILE)
        with pytest.raises(PipelineError, match="unloadable weights"):
            load_pipeline(path)

    def test_future_format_version_refused(self, model_config, tiny_vocab,
                                           tiny_encoder, tiny_dataset, tmp_path):
        model = _build("textcnn_s", model_config, "float64")
        path = save_pipeline(
            _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset),
            tmp_path / "artifact")
        _rewrite_manifest(
            path,
            lambda m: m.update(format_version=PIPELINE_FORMAT_VERSION + 1))
        with pytest.raises(PipelineError, match="format version"):
            load_pipeline(path)

    def test_version_1_manifest_refused_readably(self, model_config, tiny_vocab,
                                                 tiny_encoder, tiny_dataset,
                                                 tmp_path):
        """A v1 manifest (names-only channels, legacy ``encoder`` key) is
        refused with the version and a re-export hint, not a KeyError."""
        model = _build("textcnn_s", model_config, "float64")
        path = save_pipeline(
            _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset),
            tmp_path / "artifact")

        def to_v1(manifest):
            manifest["encoder"] = manifest.pop("encoder_backend")["encoder"]
            manifest["feature_channels"] = ["plm", "style", "emotion"]
            manifest["format_version"] = 1

        _rewrite_manifest(path, to_v1)
        with pytest.raises(PipelineError, match="format version 1.*re-export"):
            load_pipeline(path)

    def test_unregistered_model_names_registration_hint(self, model_config, tiny_vocab,
                                                        tiny_encoder, tiny_dataset,
                                                        tmp_path):
        model = _build("textcnn_s", model_config, "float64")
        path = save_pipeline(
            _pipeline_for(model, tiny_vocab, tiny_encoder, tiny_dataset),
            tmp_path / "artifact")
        _rewrite_manifest(
            path,
            lambda m: m["model"].update(name="not_registered_here"))
        with pytest.raises(PipelineError, match="register_model"):
            load_pipeline(path)

    def test_encoder_vocab_mismatch_rejected(self, model_config, tiny_vocab,
                                             tiny_dataset):
        from repro.encoders import FrozenPretrainedEncoder

        model = _build("textcnn_s", model_config, "float64")
        wrong = FrozenPretrainedEncoder(len(tiny_vocab) + 5, output_dim=16, seed=3)
        with pytest.raises(PipelineError, match="vocabulary"):
            Pipeline.from_training(model, tiny_vocab, wrong, max_length=16,
                                   domain_names=tiny_dataset.domain_names)

    def test_registry_name_resolution(self, model_config):
        model = _build("unit_serve_custom", model_config, "float64")
        assert registry_name(model) == "unit_serve_custom"

        class Unregistered(UnitCustomDetector):
            name = "never_registered"

        with pytest.raises(KeyError, match="register_model"):
            registry_name(Unregistered(model_config))


class TestVersionedCheckpoints:
    def test_index_records_every_parameter(self, model_config, tmp_path):
        model = _build("textcnn_s", model_config, "float32")
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        meta, arrays = decode_weights(path.read_bytes(), path)
        assert meta is None
        state = model.state_dict()
        assert arrays.keys() == state.keys()
        for name, array in arrays.items():
            assert array.dtype == np.float32
            assert array.shape == state[name].shape
            assert np.array_equal(array, state[name])

    def test_shape_mismatch_raises_checkpoint_error(self, model_config, tmp_path):
        from repro.nn import load_checkpoint

        source = _build("textcnn_s", model_config, "float64")
        path = tmp_path / "model.bin"
        save_checkpoint(source, path)
        wrong = _build("textcnn_s", model_config.with_overrides(cnn_channels=4), "float64")
        with pytest.raises(CheckpointError, match="shapes differ"):
            load_checkpoint(wrong, path)

    def test_legacy_npz_checkpoint_refused_with_hint(self, model_config, tmp_path):
        from repro.nn import load_checkpoint

        source = _build("textcnn_s", model_config, "float64")
        path = tmp_path / "legacy.npz"
        np.savez(path, **source.state_dict())  # the format earlier builds wrote
        with pytest.raises(CheckpointError, match="legacy.npz.*re-save"):
            load_checkpoint(source, path)

    def test_future_checkpoint_version_refused(self, model_config, tmp_path):
        from repro.nn import load_checkpoint

        model = _build("textcnn_s", model_config, "float64")
        blob = bytearray(checkpoint_bytes(model))
        struct.pack_into("<I", blob, len(MAGIC), WEIGHTS_FORMAT_VERSION + 1)
        blob[-32:] = hashlib.sha256(blob[:-32]).digest()  # a well-formed file
        (tmp_path / "future.bin").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(model, tmp_path / "future.bin")
