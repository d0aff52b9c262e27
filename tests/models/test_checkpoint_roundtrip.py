"""Checkpoint round-trips across the model zoo.

Saving a trained detector and loading it into a freshly initialised instance
must reproduce its predictions exactly — this is what makes the frozen-teacher
workflow (train once, distil many students) reliable.
"""

import numpy as np
import pytest

from repro.nn import load_checkpoint, save_checkpoint
from repro.models import available_models, build_model

#: exercise every architecture family without repeating near-identical variants
ROUNDTRIP_MODELS = ("bert", "bigru", "textcnn_s", "stylelstm", "dualemo",
                    "mmoe", "mose", "eann", "eddfn", "mdfend", "m3fend")


@pytest.mark.parametrize("name", ROUNDTRIP_MODELS)
class TestCheckpointRoundtrip:
    def test_state_dict_roundtrip_preserves_predictions(self, name, model_config,
                                                        sample_batch, tmp_path):
        source = build_model(name, model_config)
        source.eval()
        expected = source.predict_proba(sample_batch)

        path = tmp_path / f"{name}.bin"
        save_checkpoint(source, path)
        target = build_model(name, model_config.with_overrides(seed=model_config.seed + 99))
        target.eval()
        assert not np.allclose(target.predict_proba(sample_batch), expected)
        load_checkpoint(target, path)
        np.testing.assert_allclose(target.predict_proba(sample_batch), expected, atol=1e-10)

    def test_frozen_model_can_still_be_restored(self, name, model_config,
                                                sample_batch, tmp_path):
        source = build_model(name, model_config)
        source.freeze()
        path = tmp_path / f"{name}-frozen.bin"
        save_checkpoint(source, path)
        target = build_model(name, model_config)
        load_checkpoint(target, path)
        np.testing.assert_allclose(
            target.eval().predict_proba(sample_batch),
            source.eval().predict_proba(sample_batch), atol=1e-10)


def test_all_roundtrip_models_are_registered():
    registered = set(available_models())
    assert set(ROUNDTRIP_MODELS).issubset(registered)
