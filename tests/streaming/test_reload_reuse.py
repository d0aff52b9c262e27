"""Hot reloads share unchanged parts and still verify every file.

After an adaptation only the weights change, so a reload of the exported
artifact shares the served pipeline's vocabulary, tokenizer, encoder backend
and channels and builds a fresh model; after onboarding the manifest
changes and the reload rebuilds everything.  Either way every file is
hashed before the swap, and ``Pipeline.fingerprint()`` stays a function of
the current state.
"""

import numpy as np
import pytest

from streaming_helpers import build_pipeline, corpus, ring_loader

from repro.serve import VOCAB_FILE, PipelineError, load_pipeline
from repro.streaming import AdapterConfig, OnlineAdapter


def _stack(tmp_path):
    """An adapter exporting to ``tmp_path`` and a predictor serving the export."""
    pipeline = build_pipeline("float64")
    path = str(tmp_path / "artifact")
    adapter = OnlineAdapter(pipeline, ring_loader(pipeline),
                            AdapterConfig(export_path=path, min_feedback=1))
    return adapter, load_pipeline(path).predictor(), path


def _adapt(adapter, offset=100):
    dataset, _ = corpus()
    for item in dataset.items[offset:offset + 6]:
        adapter.ingest(item)
    return adapter.adapt("feedback", ordinal=offset)


def _parts(pipeline):
    return (pipeline.vocab, pipeline.tokenizer, pipeline.encoder, *pipeline.channels)


class TestReloadReuse:
    def test_weights_only_reload_shares_parts_and_builds_a_fresh_model(self, tmp_path):
        adapter, predictor, path = _stack(tmp_path)
        served = predictor.pipeline
        served_weights = {name: np.array(value)
                          for name, value in served.model.state_dict().items()}
        record = _adapt(adapter)
        fingerprint = predictor.reload(path)
        reloaded = predictor.pipeline
        assert fingerprint == record.fingerprint == adapter.pipeline.fingerprint()
        assert reloaded.fingerprint() == fingerprint
        assert all(new is old for new, old in zip(_parts(reloaded), _parts(served)))
        assert all(channel.backend is reloaded.encoder for channel in reloaded.channels
                   if channel.kind == "plm")
        # The served model is never mutated; the new one is a fresh object.
        assert reloaded.model is not served.model
        for name, value in served.model.state_dict().items():
            np.testing.assert_array_equal(value, served_weights[name])

    def test_reload_after_onboarding_rebuilds_parts(self, tmp_path):
        adapter, predictor, path = _stack(tmp_path)
        served = predictor.pipeline
        record = adapter.onboard_domain("crypto", ordinal=5)
        fingerprint = predictor.reload(path)
        reloaded = predictor.pipeline
        assert fingerprint == record["fingerprint"] == reloaded.fingerprint()
        assert reloaded.domain_names[-1] == "crypto"
        assert reloaded.model_config.num_domains == record["num_domains"]
        assert reloaded.encoder is not served.encoder
        assert reloaded.vocab is not served.vocab
        [prediction] = predictor.predict(["some text"], domains=["crypto"])
        assert prediction.ok and prediction.domain == "crypto"

    def test_corrupt_vocab_with_unchanged_digest_is_refused(self, tmp_path):
        adapter, predictor, path = _stack(tmp_path)
        before = predictor.pipeline
        old_fingerprint = predictor.pipeline.fingerprint()
        _adapt(adapter)
        with open(f"{path}/{VOCAB_FILE}", "r+b") as handle:
            blob = bytearray(handle.read())
            blob[len(blob) // 2] ^= 0xFF
            handle.seek(0)
            handle.write(bytes(blob))
        with pytest.raises(PipelineError, match="checksum mismatch.*vocab.json"):
            predictor.reload(path)
        assert predictor.pipeline is before
        assert predictor.pipeline.fingerprint() == old_fingerprint
        assert predictor.last_reload_fingerprint is None
        assert predictor.reloads == 0

    def test_fingerprint_of_a_loaded_pipeline_follows_training(self, tmp_path):
        adapter, predictor, path = _stack(tmp_path)
        loaded = load_pipeline(path)
        before = loaded.fingerprint()
        assert before == loaded.source_digests.fingerprint
        trainee = OnlineAdapter(loaded, ring_loader(loaded),
                                AdapterConfig(export_path=str(tmp_path / "other"),
                                              min_feedback=1))
        record = _adapt(trainee)
        assert loaded.fingerprint() == record.fingerprint != before
        # The digests describe the artifact it was loaded from, not its state.
        assert loaded.source_digests.fingerprint == before
