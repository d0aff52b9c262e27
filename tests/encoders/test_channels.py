"""Feature-channel registry: one abstraction from loader to serving request.

The stock channels must compute exactly what direct calls to the frozen
encoder and the batched style/emotion features compute (bit-for-bit, or the
committed training tables would shift), the registry must round-trip channel
specs, and ``DataLoader`` must accept channels as instances or spec dicts.
"""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.dataset import default_token_lists
from repro.encoders import (
    FEATURE_CHANNELS,
    EmotionChannel,
    FeatureChannel,
    FeatureChannelError,
    FrozenPretrainedEncoder,
    PLMChannel,
    ServeRequest,
    StyleChannel,
    available_feature_channels,
    build_feature_channel,
    channels_from_specs,
    register_feature_channel,
    stock_channels,
)
from repro.encoders.channels import STOCK_CHANNELS
from repro.encoders.features import emotion_features_batch, style_features_batch


@pytest.fixture(scope="module")
def backend(tiny_vocab):
    return FrozenPretrainedEncoder(len(tiny_vocab), output_dim=16, seed=3)


class TestStockChannels:
    def test_names_and_order(self, backend):
        channels = stock_channels(backend)
        assert [channel.name for channel in channels] == list(STOCK_CHANNELS)
        assert STOCK_CHANNELS == ("plm", "style", "emotion")

    def test_extract_matches_direct_feature_calls_bitwise(self, backend, tiny_splits,
                                                          tiny_vocab):
        """The loader path must produce the directly computed arrays exactly."""
        items = tiny_splits.val.items
        token_ids, mask = tiny_splits.val.encode(tiny_vocab, max_length=12)
        token_lists = default_token_lists([item.text for item in items])
        plm, style, emotion = stock_channels(backend)
        np.testing.assert_array_equal(
            plm.extract(items, token_ids, mask),
            backend.encode(token_ids, mask))
        np.testing.assert_array_equal(
            style.extract(items, token_ids, mask),
            style_features_batch(token_lists))
        np.testing.assert_array_equal(
            emotion.extract(items, token_ids, mask),
            emotion_features_batch(token_lists))

    def test_serve_matches_extract_for_token_channels(self, backend, tiny_splits,
                                                      tiny_vocab):
        """Raw-text serving recomputes the training-time values bit-for-bit."""
        items = tiny_splits.val.items[:5]
        texts = [item.text for item in items]
        token_ids, mask = tiny_splits.val.subset(range(5)).encode(
            tiny_vocab, max_length=12)
        request = ServeRequest(texts, token_ids, mask,
                               encode_plm=backend.encode)
        for channel in stock_channels(backend):
            np.testing.assert_array_equal(
                channel.serve(request),
                channel.extract(items, token_ids, mask))

    def test_serve_request_token_lists_shared_and_lazy(self):
        request = ServeRequest(["a b", "c"], np.zeros((2, 3), dtype=np.int64),
                               np.zeros((2, 3)))
        assert request._token_lists is None
        lists = request.token_lists
        assert lists == [["a", "b"], ["c"]]
        assert request.token_lists is lists  # computed once, shared

    def test_serve_request_without_plm_encoder_errors(self):
        request = ServeRequest(["a"], np.zeros((1, 2), dtype=np.int64),
                               np.zeros((1, 2)))
        with pytest.raises(FeatureChannelError, match="no plm encoder"):
            request.encode_plm(request.token_ids, request.mask)


class TestChannelRegistry:
    def test_stock_kinds_registered(self):
        assert set(available_feature_channels()) >= {"plm", "style", "emotion"}

    def test_spec_round_trip(self, backend):
        channels = stock_channels(backend)
        rebuilt = channels_from_specs([ch.to_spec() for ch in channels], backend)
        assert [type(ch) for ch in rebuilt] == [type(ch) for ch in channels]
        assert [ch.to_spec() for ch in rebuilt] == [ch.to_spec() for ch in channels]

    def test_plm_spec_names_no_backend(self, backend):
        """The manifest stores the backend once; a plm spec only binds to it."""
        assert PLMChannel(backend).to_spec() == {"kind": "plm"}
        with pytest.raises(FeatureChannelError, match="binds to the pipeline"):
            build_feature_channel({"kind": "plm"})

    def test_unknown_kind_names_the_register_call(self):
        with pytest.raises(FeatureChannelError, match="register_feature_channel"):
            build_feature_channel({"kind": "nonexistent_channel"})
        with pytest.raises(FeatureChannelError, match="kind"):
            build_feature_channel({"no": "kind"})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_feature_channel("plm", PLMChannel)
        with pytest.raises(ValueError, match="non-empty"):
            register_feature_channel("", PLMChannel)
        with pytest.raises(TypeError, match="callable"):
            register_feature_channel("unit_not_callable", object())

    def test_plm_rebinds_to_the_shared_backend_instance(self, backend):
        """Same fingerprint -> the pipeline's live backend (one cache), not
        a private reconstruction."""
        specs = [channel.to_spec() for channel in stock_channels(backend)]
        channels = channels_from_specs(specs, backend=backend)
        assert channels[0].backend is backend

    def test_custom_channel_registration(self):
        class LengthChannel(FeatureChannel):
            kind = "unit_length"

            def extract(self, items, token_ids, mask):
                return np.array([[float(len(item.text))] for item in items])

            def serve(self, request):
                return np.array([[float(len(text))] for text in request.texts])

            def to_spec(self):
                return {"kind": self.kind}

            @classmethod
            def from_spec(cls, spec):
                return cls()

        register_feature_channel("unit_length", LengthChannel)
        try:
            channel = build_feature_channel({"kind": "unit_length"})
            assert isinstance(channel, LengthChannel)
            request = ServeRequest(["abc", "de"], np.zeros((2, 2), dtype=np.int64),
                                   np.zeros((2, 2)))
            np.testing.assert_array_equal(channel.serve(request),
                                          [[3.0], [2.0]])
        finally:
            FEATURE_CHANNELS.pop("unit_length", None)


class TestLoaderChannels:
    def test_channels_match_direct_feature_calls_bitwise(self, tiny_splits,
                                                         tiny_vocab, backend):
        loader = DataLoader(tiny_splits.val, tiny_vocab, max_length=16,
                            batch_size=16, shuffle=False, seed=0,
                            channels=stock_channels(backend))
        token_lists = default_token_lists(
            [item.text for item in tiny_splits.val.items])
        expected = {
            "plm": backend.encode(loader.token_ids, loader.mask),
            "style": style_features_batch(token_lists),
            "emotion": emotion_features_batch(token_lists),
        }
        assert list(loader.features) == list(expected)
        for name, values in expected.items():
            np.testing.assert_array_equal(loader.features[name], values)

    def test_spec_dict_entries_resolved_through_registry(self, tiny_splits,
                                                         tiny_vocab, backend):
        loader = DataLoader(tiny_splits.val, tiny_vocab, max_length=16,
                            batch_size=16, shuffle=False, seed=0,
                            channels=[PLMChannel(backend), {"kind": "style"}])
        assert set(loader.features) == {"plm", "style"}
        np.testing.assert_array_equal(
            loader.features["plm"],
            backend.encode(loader.token_ids, loader.mask))
        np.testing.assert_array_equal(
            loader.features["style"],
            StyleChannel().extract(tiny_splits.val.items, None, None))
        with pytest.raises(FeatureChannelError, match="binds to the pipeline"):
            DataLoader(tiny_splits.val, tiny_vocab, max_length=16, batch_size=16,
                       shuffle=False, seed=0, channels=[{"kind": "plm"}])

    def test_invalid_channel_entry_rejected(self, tiny_splits, tiny_vocab):
        with pytest.raises(TypeError, match="FeatureChannel"):
            DataLoader(tiny_splits.val, tiny_vocab, max_length=16, batch_size=16,
                       shuffle=False, seed=0, channels=["style"])

    def test_duplicate_channel_name_rejected(self, tiny_splits, tiny_vocab):
        """Features are keyed by channel name; a repeat would overwrite."""
        with pytest.raises(ValueError, match="'style' is passed more than once"):
            DataLoader(tiny_splits.val, tiny_vocab, max_length=16, batch_size=16,
                       shuffle=False, seed=0,
                       channels=[StyleChannel(), {"kind": "style"}])

    def test_emotion_channel_instance_usable_directly(self, tiny_splits, tiny_vocab):
        loader = DataLoader(tiny_splits.val, tiny_vocab, max_length=16,
                            batch_size=16, shuffle=False, seed=0,
                            channels=[EmotionChannel()])
        batch = next(iter(loader))
        assert batch.feature("emotion").shape[0] == batch.token_ids.shape[0]
