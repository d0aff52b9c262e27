"""Encoder backends and feature channels through the pipeline artifact.

The contract of the backend and channel registries, end to end:

* a format-version-2 manifest holds exactly one encoder entry
  (``encoder_backend``) and one channel list (``feature_channels`` specs);
* non-local backends persist there and reload bit-identically (their math
  wraps the same frozen encoder);
* a custom detector consuming a custom registered channel exports, reloads
  in a *fresh process* and reproduces its probabilities bit-for-bit in both
  engine dtypes;
* failure modes (unregistered backend/channel kinds, a ``plm`` channel bound
  to another backend, a channel the model reads missing) surface as
  readable :class:`PipelineError`\\ s.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import backend_roundtrip_helper as helper

from repro.encoders import (
    CachedBackend,
    EmotionChannel,
    FrozenPretrainedEncoder,
    PLMChannel,
    StyleChannel,
    spec_fingerprint,
)
from repro.models import build_model
from repro.reliability.durable import atomic_write_text, sha256_file
from repro.serve import (
    CHECKSUMS_FILE,
    MANIFEST_FILE,
    Pipeline,
    PipelineError,
    load_pipeline,
    save_pipeline,
)
from repro.tensor import default_dtype

DTYPES = ("float64", "float32")

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: every key of a format-version-2 manifest
MANIFEST_KEYS = {
    "domain_names", "dtype", "encoder_backend", "feature_channels",
    "format_version", "labels", "max_length", "metadata", "model",
    "repro_version", "tokenizer",
}


@pytest.fixture(scope="module", autouse=True)
def _registrations():
    helper.register()
    yield
    helper.unregister()


@pytest.fixture(scope="module")
def probe_texts(tiny_splits):
    items = tiny_splits.test.items[:6]
    return [item.text for item in items], [item.domain for item in items]


def _read_manifest(path):
    with open(os.path.join(path, MANIFEST_FILE)) as handle:
        return json.load(handle)


def _rewrite_manifest(path, manifest):
    """Replace an artifact's manifest and re-bless it in ``checksums.json``."""
    manifest_path = os.path.join(path, MANIFEST_FILE)
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    checksums_path = os.path.join(path, CHECKSUMS_FILE)
    with open(checksums_path) as handle:
        checksums = json.load(handle)
    checksums[MANIFEST_FILE] = sha256_file(manifest_path)
    atomic_write_text(checksums_path, json.dumps(checksums))


def _stock_pipeline(model_config, tiny_vocab, encoder, tiny_dataset, dtype,
                    name="textcnn_s"):
    with default_dtype(dtype):
        model = build_model(name, model_config)
    return Pipeline.from_training(model, tiny_vocab, encoder, max_length=16,
                                  domain_names=tiny_dataset.domain_names)


class FailingBackend(FrozenPretrainedEncoder):
    """A backend that is down: every encode raises and is counted."""

    calls = 0

    def encode(self, token_ids, mask=None):
        self.calls += 1
        raise OSError("backend down")


class TestManifestV2:
    def test_one_encoder_entry_and_one_channel_list(self, model_config,
                                                    tiny_vocab, tiny_encoder,
                                                    tiny_dataset, tmp_path):
        pipeline = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, "float64")
        manifest = _read_manifest(save_pipeline(pipeline, tmp_path / "artifact"))
        assert set(manifest) == MANIFEST_KEYS
        # The spec earlier builds wrote, byte for byte:
        # artifacts exported by earlier builds keep loading.
        assert manifest["encoder_backend"] == {
            "kind": "local",
            "encoder": {"vocab_size": len(tiny_vocab), "output_dim": 16,
                        "hidden_dim": 64, "context_window": 0,
                        "positional_scale": 0.2, "seed": 3}}
        assert manifest["feature_channels"] == [
            {"kind": "plm"}, {"kind": "style"}, {"kind": "emotion"}]

    def test_explicit_stock_channels_match_the_default(self, model_config,
                                                       tiny_vocab, tiny_encoder,
                                                       tiny_dataset):
        """Passing the stock channel objects (the training path) writes the
        same manifest as letting the pipeline default them."""
        backend = tiny_encoder
        with default_dtype("float64"):
            model = build_model("textcnn_s", model_config)
        explicit = Pipeline.from_training(
            model, tiny_vocab, backend, max_length=16,
            domain_names=tiny_dataset.domain_names,
            channels=[PLMChannel(backend), StyleChannel(), EmotionChannel()])
        default = Pipeline.from_training(
            model, tiny_vocab, backend, max_length=16,
            domain_names=tiny_dataset.domain_names)
        assert explicit.manifest() == default.manifest()


@pytest.mark.parametrize("dtype", DTYPES)
class TestNonLocalKindRoundTrip:
    def test_cached_backend_round_trips(self, dtype, model_config, tiny_vocab,
                                        tiny_encoder, tiny_dataset, probe_texts,
                                        tmp_path):
        texts, domains = probe_texts
        backend = CachedBackend.from_encoder(tiny_encoder, max_entries=64)
        pipeline = _stock_pipeline(model_config, tiny_vocab, backend,
                                   tiny_dataset, dtype)
        expected = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, dtype).predictor().predict_proba(
                                       texts, domains=domains)
        # The cache is transparent: same probabilities as the local pipeline.
        np.testing.assert_array_equal(
            pipeline.predictor().predict_proba(texts, domains=domains), expected)

        path = save_pipeline(pipeline, tmp_path / "artifact")
        manifest = _read_manifest(path)
        assert manifest["encoder_backend"]["kind"] == "cached"
        assert manifest["encoder_backend"]["max_entries"] == 64
        assert "encoder" not in manifest  # one encoder entry only
        loaded = load_pipeline(path)
        assert isinstance(loaded.encoder, CachedBackend)
        assert loaded.encoder.fingerprint() == backend.fingerprint()
        np.testing.assert_array_equal(
            loaded.predictor().predict_proba(texts, domains=domains), expected)


@pytest.mark.parametrize("dtype", DTYPES)
class TestCustomChannelRoundTrip:
    def _custom_pipeline(self, model_config, tiny_vocab, tiny_encoder,
                         tiny_dataset, dtype):
        backend = tiny_encoder
        with default_dtype(dtype):
            model = build_model(helper.MODEL_NAME, model_config)
        return Pipeline.from_training(
            model, tiny_vocab, backend, max_length=16,
            domain_names=tiny_dataset.domain_names,
            channels=[PLMChannel(backend), helper.TokenCountChannel()])

    def test_manifest_carries_channel_specs(self, dtype, model_config, tiny_vocab,
                                            tiny_encoder, tiny_dataset, tmp_path):
        pipeline = self._custom_pipeline(model_config, tiny_vocab, tiny_encoder,
                                         tiny_dataset, dtype)
        path = save_pipeline(pipeline, tmp_path / "artifact")
        manifest = _read_manifest(path)
        assert manifest["feature_channels"] == [
            {"kind": "plm"}, {"kind": helper.CHANNEL_KIND}]

    def test_same_process_round_trip(self, dtype, model_config, tiny_vocab,
                                     tiny_encoder, tiny_dataset, probe_texts,
                                     tmp_path):
        texts, domains = probe_texts
        pipeline = self._custom_pipeline(model_config, tiny_vocab, tiny_encoder,
                                         tiny_dataset, dtype)
        expected = pipeline.predictor().predict_proba(texts, domains=domains)
        assert expected.dtype == np.dtype(dtype)
        loaded = load_pipeline(save_pipeline(pipeline, tmp_path / "artifact"))
        assert [ch.name for ch in loaded.channels] == ["plm", helper.CHANNEL_KIND]
        # The model declares its custom channel, so serving computes it.
        assert [ch.name for ch in loaded.served_channels] == [
            "plm", helper.CHANNEL_KIND]
        batch = loaded.predictor().encode_batch(texts, domains=domains)
        assert list(batch.features) == ["plm", helper.CHANNEL_KIND]
        # The reloaded plm channel shares the pipeline's backend instance.
        assert loaded.channels[0].backend is loaded.encoder
        np.testing.assert_array_equal(
            loaded.predictor().predict_proba(texts, domains=domains), expected)

    def test_fresh_process_round_trip_bit_identical(self, dtype, model_config,
                                                    tiny_vocab, tiny_encoder,
                                                    tiny_dataset, probe_texts,
                                                    tmp_path):
        """Satellite 3: export here, reload in a *fresh* interpreter that only
        re-runs the registrations, compare probabilities bit-for-bit."""
        texts, domains = probe_texts
        pipeline = self._custom_pipeline(model_config, tiny_vocab, tiny_encoder,
                                         tiny_dataset, dtype)
        expected = pipeline.predictor().predict_proba(texts, domains=domains)
        path = save_pipeline(pipeline, tmp_path / "artifact")

        probes_path = tmp_path / "probes.json"
        probes_path.write_text(json.dumps({"texts": texts, "domains": domains}))
        out_path = tmp_path / "probabilities.npy"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH", "")]))
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "backend_roundtrip_helper.py")
        result = subprocess.run(
            [sys.executable, script, path, str(probes_path), str(out_path)],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        restored = np.load(out_path)
        assert restored.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(restored, expected)


class TestFailureModes:
    def test_unregistered_backend_kind_names_the_register_call(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset, tmp_path):
        pipeline = _stock_pipeline(model_config, tiny_vocab,
                                   CachedBackend.from_encoder(tiny_encoder),
                                   tiny_dataset, "float64")
        path = save_pipeline(pipeline, tmp_path / "artifact")
        from repro.encoders.backends import ENCODER_BACKENDS

        saved = ENCODER_BACKENDS.pop("cached")
        try:
            with pytest.raises(PipelineError,
                               match="register_encoder_backend"):
                load_pipeline(path)
        finally:
            ENCODER_BACKENDS["cached"] = saved

    def test_retired_remote_artifact_fails_as_unknown_kind(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset, tmp_path):
        """An artifact whose manifest names the retired ``remote`` backend
        (checksums intact) is refused with the unknown-kind message."""
        pipeline = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, "float64")
        path = save_pipeline(pipeline, tmp_path / "artifact")
        manifest = _read_manifest(path)
        manifest["encoder_backend"] = {
            "kind": "remote", "encoder": tiny_encoder.to_spec()["encoder"],
            "max_rows_per_request": 3, "coalesce": True}
        _rewrite_manifest(path, manifest)

        with pytest.raises(PipelineError,
                           match="unknown encoder backend kind 'remote'"):
            load_pipeline(path)

    def test_unregistered_channel_kind_names_the_register_call(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset, tmp_path):
        pipeline = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, "float64")
        with default_dtype("float64"):
            model = build_model(helper.MODEL_NAME, model_config)
        backend = tiny_encoder
        custom = Pipeline.from_training(
            model, tiny_vocab, backend, max_length=16,
            domain_names=tiny_dataset.domain_names,
            channels=[PLMChannel(backend), helper.TokenCountChannel()])
        path = save_pipeline(custom, tmp_path / "artifact")
        from repro.encoders.channels import FEATURE_CHANNELS

        saved = FEATURE_CHANNELS.pop(helper.CHANNEL_KIND)
        try:
            with pytest.raises(PipelineError,
                               match="register_feature_channel"):
                load_pipeline(path)
        finally:
            FEATURE_CHANNELS[helper.CHANNEL_KIND] = saved

    def test_encoder_that_is_not_a_backend_refused(
            self, model_config, tiny_vocab, tiny_dataset):
        with default_dtype("float64"):
            model = build_model("textcnn_s", model_config)
        with pytest.raises(PipelineError, match="expected an EncoderBackend"):
            Pipeline.from_training(model, tiny_vocab, object(), max_length=16,
                                   domain_names=tiny_dataset.domain_names)

    def test_plm_channel_on_another_backend_refused(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        """Serving computes plm with the pipeline's encoder, so a plm channel
        bound to a different backend would score the model on the wrong
        features; the pipeline refuses it at construction."""
        other = FrozenPretrainedEncoder(len(tiny_vocab), output_dim=16, seed=99)
        assert other.fingerprint() != tiny_encoder.fingerprint()
        with default_dtype("float64"):
            model = build_model("textcnn_s", model_config)
        with pytest.raises(PipelineError, match="plm channel is bound"):
            Pipeline.from_training(
                model, tiny_vocab, tiny_encoder, max_length=16,
                domain_names=tiny_dataset.domain_names,
                channels=[PLMChannel(other), StyleChannel(), EmotionChannel()])

    def test_plm_channel_on_an_equal_backend_accepted(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        """A separate backend instance with the same spec is the same encoder."""
        with default_dtype("float64"):
            model = build_model("textcnn_s", model_config)
        pipeline = Pipeline.from_training(
            model, tiny_vocab, tiny_encoder, max_length=16,
            domain_names=tiny_dataset.domain_names,
            channels=[PLMChannel(tiny_encoder)])
        assert [ch.name for ch in pipeline.channels] == ["plm"]

    def test_duplicate_channel_names_refused(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        """Serving keys features by channel name, so a second channel of the
        same name would silently replace the first."""
        with default_dtype("float64"):
            model = build_model("textcnn_s", model_config)
        with pytest.raises(PipelineError, match="'style' is listed more than once"):
            Pipeline.from_training(
                model, tiny_vocab, tiny_encoder, max_length=16,
                domain_names=tiny_dataset.domain_names,
                channels=[StyleChannel(), EmotionChannel(), StyleChannel()])

    def test_channel_the_model_reads_missing_refused(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        """An m3fend pipeline without style/emotion would fail on its first
        request; the pipeline refuses it at construction instead."""
        backend = tiny_encoder
        with default_dtype("float64"):
            model = build_model("m3fend", model_config)
        with pytest.raises(PipelineError, match=(
                r"model 'm3fend' reads feature channels \['style', 'emotion'\] "
                "that the pipeline does not provide")):
            Pipeline.from_training(
                model, tiny_vocab, backend, max_length=16,
                domain_names=tiny_dataset.domain_names,
                channels=[PLMChannel(backend)])

    def test_artifact_missing_a_read_channel_refused_on_load_and_reload(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset,
            probe_texts, tmp_path):
        """An artifact whose manifest drops a channel its model reads (checksums
        intact) is refused by load_pipeline; a hot reload from it fails and
        the predictor keeps serving the old pipeline."""
        texts, domains = probe_texts
        pipeline = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, "float64", name="m3fend")
        predictor = pipeline.predictor()
        expected = predictor.predict_proba(texts, domains=domains)
        path = save_pipeline(pipeline, tmp_path / "artifact")
        manifest = _read_manifest(path)
        manifest["feature_channels"] = [{"kind": "plm"}, {"kind": "style"}]
        _rewrite_manifest(path, manifest)

        with pytest.raises(PipelineError, match=r"reads feature channels \['emotion'\]"):
            load_pipeline(path)
        with pytest.raises(PipelineError, match=r"reads feature channels \['emotion'\]"):
            predictor.reload(path)
        assert predictor.pipeline is pipeline
        np.testing.assert_array_equal(
            predictor.predict_proba(texts, domains=domains), expected)


class TestBackendHealthReporting:
    def test_health_reports_cached_backend_state(self, model_config, tiny_vocab,
                                                 tiny_encoder, tiny_dataset,
                                                 probe_texts):
        """Satellite 1: ``Predictor.health()`` surfaces the live backend."""
        texts, domains = probe_texts
        backend = CachedBackend.from_encoder(tiny_encoder)
        pipeline = _stock_pipeline(model_config, tiny_vocab, backend,
                                   tiny_dataset, "float64")
        predictor = pipeline.predictor()
        predictor.predict_proba(texts, domains=domains)
        predictor.predict_proba(texts, domains=domains)  # second pass hits
        health = predictor.health()
        state = health["encoder_backend"]
        assert state["kind"] == "cached"
        assert state["fingerprint"] == spec_fingerprint(backend.to_spec())
        assert state["hits"] >= 1
        assert 0.0 < state["hit_rate"] <= 1.0

    def test_backend_error_reaches_predict_after_one_call(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        """The predictor calls the backend directly: no retry, no breaker."""
        backend = FailingBackend.from_spec(tiny_encoder.to_spec())
        pipeline = _stock_pipeline(model_config, tiny_vocab, backend,
                                   tiny_dataset, "float64")
        with pytest.raises(OSError, match="backend down"):
            pipeline.predictor().predict(["one probe text"])
        assert backend.calls == 1

    def test_loaded_pipeline_reports_only_its_own_checks(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset,
            tmp_path):
        pipeline = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                   tiny_dataset, "float64")
        save_pipeline(pipeline, str(tmp_path / "detector"))
        loaded = load_pipeline(str(tmp_path / "detector"))
        predictor = loaded.predictor()
        health = predictor.health()
        assert set(health["checks"]) == {"artifact", "inference"}
        assert health["status"] == "ok"
        assert predictor.backend_state() == loaded.encoder.state()

    def test_failing_backend_degrades_the_inference_check(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset):
        backend = FailingBackend.from_spec(tiny_encoder.to_spec())
        pipeline = _stock_pipeline(model_config, tiny_vocab, backend,
                                   tiny_dataset, "float64")
        health = pipeline.predictor().health()
        assert health["status"] == "degraded"
        assert health["checks"] == {"inference": "OSError: backend down"}

    def test_reload_serves_the_new_pipelines_backend(
            self, model_config, tiny_vocab, tiny_encoder, tiny_dataset,
            probe_texts):
        """A hot reload swaps the plm encoder along with the pipeline."""
        texts, domains = probe_texts
        local = _stock_pipeline(model_config, tiny_vocab, tiny_encoder,
                                tiny_dataset, "float64")
        cached = CachedBackend.from_encoder(tiny_encoder)
        swapped = Pipeline.from_training(local.model, tiny_vocab, cached,
                                         max_length=16,
                                         domain_names=tiny_dataset.domain_names)
        predictor = local.predictor()
        before = predictor.predict_proba(texts, domains=domains)
        predictor.reload(swapped)
        after = predictor.predict_proba(texts, domains=domains)
        np.testing.assert_array_equal(after, before)
        assert cached.stats()["misses"] >= 1
        assert predictor.backend_state() == cached.state()
