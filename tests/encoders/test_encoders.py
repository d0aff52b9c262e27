"""Frozen pre-trained encoder stand-in and handcrafted style/emotion features."""

import numpy as np
import pytest

from repro.encoders import (
    EMOTION_FEATURE_DIM,
    STYLE_FEATURE_DIM,
    FrozenPretrainedEncoder,
    emotion_features,
    style_features,
)


class TestFrozenPretrainedEncoder:
    def test_output_shape(self):
        encoder = FrozenPretrainedEncoder(vocab_size=50, output_dim=12, seed=0)
        ids = np.array([[1, 2, 3, 0], [4, 5, 0, 0]])
        out = encoder.encode(ids)
        assert out.shape == (2, 4, 12)

    def test_padding_positions_are_zero(self):
        encoder = FrozenPretrainedEncoder(vocab_size=50, output_dim=8, seed=0)
        ids = np.array([[1, 2, 0, 0]])
        out = encoder.encode(ids)
        np.testing.assert_allclose(out[0, 2:], 0.0)

    def test_deterministic(self):
        a = FrozenPretrainedEncoder(30, output_dim=8, seed=5)
        b = FrozenPretrainedEncoder(30, output_dim=8, seed=5)
        ids = np.array([[3, 7, 9]])
        np.testing.assert_allclose(a.encode(ids), b.encode(ids))

    def test_different_tokens_get_different_vectors(self):
        encoder = FrozenPretrainedEncoder(30, output_dim=16, seed=0)
        out = encoder.encode(np.array([[1, 2]]))
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_out_of_vocabulary_id_rejected(self):
        encoder = FrozenPretrainedEncoder(10, output_dim=4, seed=0)
        with pytest.raises(ValueError):
            encoder.encode(np.array([[11]]))
        with pytest.raises(ValueError):
            encoder.encode(np.array([1, 2, 3]))  # wrong rank

    def test_pooled_encoding(self):
        encoder = FrozenPretrainedEncoder(30, output_dim=8, seed=0)
        ids = np.array([[1, 2, 0, 0], [3, 0, 0, 0]])
        pooled = encoder.encode_pooled(ids)
        assert pooled.shape == (2, 8)
        assert np.isfinite(pooled).all()

    def test_context_window_mixes_neighbours(self):
        plain = FrozenPretrainedEncoder(30, output_dim=8, context_window=0, seed=0)
        contextual = FrozenPretrainedEncoder(30, output_dim=8, context_window=2, seed=0)
        ids = np.array([[1, 2, 3, 4]])
        assert not np.allclose(plain.encode(ids), contextual.encode(ids))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FrozenPretrainedEncoder(1, output_dim=8)
        with pytest.raises(ValueError):
            FrozenPretrainedEncoder(10, output_dim=0)


class TestHandcraftedFeatures:
    def test_style_feature_dimensions(self):
        vec = style_features(["style_formal1", "common3", "alpha"])
        assert vec.shape == (STYLE_FEATURE_DIM,)
        assert np.isfinite(vec).all()

    def test_style_features_empty_input(self):
        vec = style_features([])
        assert vec.shape == (STYLE_FEATURE_DIM,)
        np.testing.assert_allclose(vec, 0.0)

    def test_emotion_feature_dimensions(self):
        vec = emotion_features(["emo_arousal1", "emo_neutral2", "x"])
        assert vec.shape == (EMOTION_FEATURE_DIM,)

    def test_emotion_dominance_sign(self):
        arousal = emotion_features(["emo_arousal1", "emo_arousal2"])
        neutral = emotion_features(["emo_neutral1", "emo_neutral2"])
        assert arousal[2] > 0 > neutral[2]

    def test_style_sensational_fraction(self):
        vec = style_features(["style_sensational1", "style_sensational2", "other", "other"])
        assert vec[3] == pytest.approx(0.5)


class TestBatchedFeatureParity:
    """Vectorised feature extraction must equal the scalar ground truth bitwise."""

    def test_batch_matches_scalar_bit_for_bit(self):
        from repro.encoders.features import emotion_features_batch, style_features_batch

        rng = np.random.default_rng(1)
        pool = ["style_sensational_x", "style_formal", "common", "common12",
                "emo_arousal", "emo_neutral_b", "dom3_topic17", "fake_sig_2",
                "wordy_longer_token", "a"]
        token_lists = [list(rng.choice(pool, int(rng.integers(0, 30))))
                       for _ in range(64)]
        token_lists += [[], ["emo_arousal"], ["emo_neutral_b"], ["common"] * 5]
        style_rows = style_features_batch(token_lists)
        emotion_rows = emotion_features_batch(token_lists)
        for row, tokens in enumerate(token_lists):
            np.testing.assert_array_equal(style_rows[row], style_features(tokens))
            np.testing.assert_array_equal(emotion_rows[row], emotion_features(tokens))

    def test_pathological_token_falls_back_to_scalar_path(self):
        """One huge unbroken token must not inflate the flat unicode array."""
        from repro.encoders.features import (
            MAX_VECTORISED_TOKEN_CHARS,
            emotion_features_batch,
            style_features_batch,
        )

        monster = "x" * (MAX_VECTORISED_TOKEN_CHARS * 4)
        token_lists = [["common1", monster], ["emo_arousal_a", "style_formal_b"], []]
        style_rows = style_features_batch(token_lists)
        emotion_rows = emotion_features_batch(token_lists)
        for row, tokens in enumerate(token_lists):
            np.testing.assert_array_equal(style_rows[row], style_features(tokens))
            np.testing.assert_array_equal(emotion_rows[row], emotion_features(tokens))

    def test_channels_use_batch_path(self):
        from repro.data import NewsItem
        from repro.encoders import EmotionChannel, StyleChannel

        items = [NewsItem(text="style_formal1 common3 emo_arousal2", label=0,
                          domain=0, domain_name="d"),
                 NewsItem(text="", label=0, domain=0, domain_name="d")]
        style = StyleChannel().extract(items, None, None)
        emotion = EmotionChannel().extract(items, None, None)
        assert style.shape == (2, 6) and emotion.shape == (2, 5)
        np.testing.assert_array_equal(style[0],
                                      style_features(items[0].text.split()))
        np.testing.assert_array_equal(style[1], style_features([]))
        np.testing.assert_array_equal(emotion[0],
                                      emotion_features(items[0].text.split()))
