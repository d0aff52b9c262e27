"""Handcrafted style and emotion features.

StyleLSTM concatenates writing-style features with the text representation and
DualEmo concatenates dual-emotion features; M3FEND consumes semantics, emotion
and style views.  These extractors compute the equivalent feature vectors from
the symbolic token streams of the synthetic corpora (emotion / style tokens are
explicit there), plus generic surface statistics so the features are not
degenerate on arbitrary text.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Token prefixes emitted by the synthetic generator.
EMOTION_PREFIXES = ("emo_arousal", "emo_neutral")
STYLE_PREFIXES = ("style_sensational", "style_formal")

STYLE_FEATURE_DIM = 6
EMOTION_FEATURE_DIM = 5


def style_features(tokens: Sequence[str]) -> np.ndarray:
    """Writing-style feature vector (length, lexical diversity, style-token mix).

    The three prefix fractions are counted in a single pass over the tokens
    (the prefixes are mutually exclusive), which matters on the serving hot
    path where this runs per request; integer counts divide to exactly the
    same floats as the per-prefix scans they replaced.
    """
    length = len(tokens)
    unique = len(set(tokens))
    type_token_ratio = unique / length if length else 0.0
    sensational = formal = common = total_chars = 0
    for token in tokens:
        total_chars += len(token)
        if token.startswith(STYLE_PREFIXES[0]):
            sensational += 1
        elif token.startswith(STYLE_PREFIXES[1]):
            formal += 1
        elif token.startswith("common"):
            common += 1
    # exact-integer sum / count: bit-identical to the np.mean it replaced
    mean_token_length = total_chars / length if length else 0.0
    return np.array([
        min(length / 64.0, 1.0),
        type_token_ratio,
        mean_token_length / 24.0,
        sensational / length if length else 0.0,
        formal / length if length else 0.0,
        common / length if length else 0.0,
    ], dtype=np.float64)


def emotion_features(tokens: Sequence[str]) -> np.ndarray:
    """Dual-emotion feature vector (publisher emotion mix and intensity)."""
    length = len(tokens)
    arousal_count = neutral_count = 0
    for token in tokens:
        if token.startswith(EMOTION_PREFIXES[0]):
            arousal_count += 1
        elif token.startswith(EMOTION_PREFIXES[1]):
            neutral_count += 1
    arousal = arousal_count / length if length else 0.0
    neutral = neutral_count / length if length else 0.0
    total = arousal + neutral
    dominance = (arousal - neutral) / total if total else 0.0
    return np.array([
        arousal,
        neutral,
        dominance,
        1.0 if arousal > neutral else 0.0,
        min((arousal + neutral) * 4.0, 1.0),
    ], dtype=np.float64)


# --------------------------------------------------------------------------- #
# Batched (vectorised) extraction                                              #
# --------------------------------------------------------------------------- #
# The scalar functions above are the ground truth; the batch versions below
# compute the same integer counts with one flat NumPy pass over all tokens
# (np.char predicates + per-segment bincount sums) and divide them in exactly
# the same order, so every row is bit-identical to its scalar counterpart
# (pinned by tests/encoders/test_encoders.py).  They are the hot path for
# both DataLoader construction and repro.serve batch encoding.

#: Widest token the vectorised extractors will pack into a flat unicode
#: array.  ``np.array(list_of_str)`` allocates ``4 * max_len`` bytes for
#: EVERY slot, so one adversarially long unbroken token (a pasted URL in a
#: raw serving request) would inflate the whole batch; such batches fall
#: back to the scalar path, which is O(total characters).
MAX_VECTORISED_TOKEN_CHARS = 256


def _flat_tokens(token_lists: Sequence[Sequence[str]]):
    """Flatten ragged token lists into (flat, segment_ids, lengths)."""
    lengths = np.array([len(tokens) for tokens in token_lists], dtype=np.int64)
    if int(lengths.sum()) == 0:
        flat = np.empty(0, dtype="U1")
    else:
        flat = np.array([token for tokens in token_lists for token in tokens])
    segments = np.repeat(np.arange(len(token_lists)), lengths)
    return flat, segments, lengths


def _scalar_fallback(token_lists, per_item, width: int) -> np.ndarray | None:
    """Scalar rows when vectorised packing would blow up (or n is 0)."""
    if not len(token_lists):
        return np.empty((0, width), dtype=np.float64)
    widest = max((len(token) for tokens in token_lists for token in tokens),
                 default=0)
    if widest <= MAX_VECTORISED_TOKEN_CHARS:
        return None
    return np.stack([per_item(tokens) for tokens in token_lists])


def _segment_counts(flags: np.ndarray, segments: np.ndarray, count: int) -> np.ndarray:
    """Per-segment sums of 0/1 flags (exact integers in float64)."""
    return np.bincount(segments, weights=flags.astype(np.float64), minlength=count)


def style_features_batch(token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """Vectorised :func:`style_features` over many token lists → ``(n, 6)``."""
    fallback = _scalar_fallback(token_lists, style_features, STYLE_FEATURE_DIM)
    if fallback is not None:
        return fallback
    n = len(token_lists)
    flat, segments, lengths = _flat_tokens(token_lists)
    populated = lengths > 0
    safe = np.where(populated, lengths, 1).astype(np.float64)
    unique = np.array([len(set(tokens)) for tokens in token_lists], dtype=np.int64)
    char_sums = np.bincount(segments, weights=np.char.str_len(flat), minlength=n)
    out = np.empty((n, STYLE_FEATURE_DIM), dtype=np.float64)
    out[:, 0] = np.minimum(lengths / 64.0, 1.0)
    out[:, 1] = np.where(populated, unique / safe, 0.0)
    out[:, 2] = np.where(populated, char_sums / safe, 0.0) / 24.0
    for column, prefix in enumerate((STYLE_PREFIXES[0], STYLE_PREFIXES[1], "common"),
                                    start=3):
        counts = _segment_counts(np.char.startswith(flat, prefix), segments, n)
        out[:, column] = np.where(populated, counts / safe, 0.0)
    return out


def emotion_features_batch(token_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """Vectorised :func:`emotion_features` over many token lists → ``(n, 5)``."""
    fallback = _scalar_fallback(token_lists, emotion_features, EMOTION_FEATURE_DIM)
    if fallback is not None:
        return fallback
    n = len(token_lists)
    flat, segments, lengths = _flat_tokens(token_lists)
    populated = lengths > 0
    safe = np.where(populated, lengths, 1).astype(np.float64)
    arousal = np.where(
        populated,
        _segment_counts(np.char.startswith(flat, EMOTION_PREFIXES[0]), segments, n) / safe,
        0.0)
    neutral = np.where(
        populated,
        _segment_counts(np.char.startswith(flat, EMOTION_PREFIXES[1]), segments, n) / safe,
        0.0)
    total = arousal + neutral
    emotional = total > 0
    out = np.empty((n, EMOTION_FEATURE_DIM), dtype=np.float64)
    out[:, 0] = arousal
    out[:, 1] = neutral
    out[:, 2] = np.where(emotional,
                         (arousal - neutral) / np.where(emotional, total, 1.0), 0.0)
    out[:, 3] = np.where(arousal > neutral, 1.0, 0.0)
    out[:, 4] = np.minimum((arousal + neutral) * 4.0, 1.0)
    return out
