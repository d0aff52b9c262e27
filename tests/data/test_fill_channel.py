"""Windowed feature fill: exact, dtype-preserving, shared, and bounded.

:func:`repro.data.loader.fill_channel` runs ``FeatureChannel.extract`` over
fixed :data:`FILL_WINDOW`-row windows, both when a :class:`DataLoader` is
built and when :class:`StreamWindowBuffer` overwrites ring rows.  Channels
are row-wise, so the windowed result must equal one ``extract`` call over
all rows byte for byte, and construction must not hold extraction
temporaries for a whole split.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    MultiDomainNewsDataset,
    StreamWindowBuffer,
    make_weibo21_like,
)
from repro.data.loader import FILL_WINDOW
from repro.encoders import (
    EmotionChannel,
    FeatureChannel,
    FrozenPretrainedEncoder,
    PLMChannel,
    StyleChannel,
)
from repro.tensor import default_dtype

W = FILL_WINDOW
MAX_LENGTH = 24


@pytest.fixture(scope="module")
def corpus():
    """About 900 items: enough for ``2W + 3`` rows and a ring wrap."""
    dataset = make_weibo21_like(scale=0.1, seed=7)
    return dataset, dataset.build_vocabulary()


def _dataset(corpus, rows: int) -> MultiDomainNewsDataset:
    dataset, _ = corpus
    assert rows <= len(dataset)
    return MultiDomainNewsDataset(dataset.items[:rows],
                                  domain_names=dataset.domain_names)


def _channel(kind: str, vocab) -> FeatureChannel:
    if kind == "plm":
        return PLMChannel(FrozenPretrainedEncoder(len(vocab), output_dim=16, seed=3))
    return {"style": StyleChannel, "emotion": EmotionChannel}[kind]()


class TokenCountChannel(FeatureChannel):
    """A custom integer channel: the number of non-pad tokens per row."""

    kind = "token_count"

    def extract(self, items, token_ids, mask):
        return (token_ids != 0).sum(axis=1, keepdims=True).astype(np.int32)

    def serve(self, request):
        return self.extract(None, request.token_ids, request.mask)

    def to_spec(self):
        return {"kind": self.kind}


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kind", ["plm", "style", "emotion"])
@pytest.mark.parametrize("rows", [0, 1, W - 1, W, W + 1, 2 * W + 3])
def test_windowed_fill_equals_one_call_extract(corpus, kind, dtype, rows):
    dataset = _dataset(corpus, rows)
    channel = _channel(kind, corpus[1])
    with default_dtype(dtype):
        loader = DataLoader(dataset, corpus[1], max_length=MAX_LENGTH,
                            channels=[channel])
        expected = np.asarray(channel.extract(dataset.items, loader.token_ids,
                                              loader.mask)).astype(dtype)
    _assert_same_bytes(loader.features[kind], expected)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_integer_channel_keeps_its_dtype(corpus, dtype):
    dataset = _dataset(corpus, 2 * W + 3)
    channel = TokenCountChannel()
    with default_dtype(dtype):
        loader = DataLoader(dataset, corpus[1], max_length=MAX_LENGTH,
                            channels=[channel])
    expected = channel.extract(dataset.items, loader.token_ids, loader.mask)
    _assert_same_bytes(loader.features["token_count"], expected)


class ShortSecondWindow(StyleChannel):
    """Drops one row from the second window only."""

    kind = "short_second_window"

    def __init__(self):
        self.calls = 0

    def extract(self, items, token_ids, mask):
        self.calls += 1
        values = super().extract(items, token_ids, mask)
        return values[:-1] if self.calls == 2 else values


def test_wrong_row_count_in_one_window_names_the_channel(corpus):
    with pytest.raises(ValueError,
                       match="'short_second_window' returned 9 rows for 10 items"):
        DataLoader(_dataset(corpus, W + 10), corpus[1], max_length=MAX_LENGTH,
                   channels=[ShortSecondWindow()])


def test_ring_write_runs_the_same_row_check(corpus):
    """Ring writes run the same check: a short window is refused."""
    loader = DataLoader(_dataset(corpus, W + 5), corpus[1], max_length=MAX_LENGTH,
                        channels=[StyleChannel()])
    channel = ShortSecondWindow()
    loader.channels = [channel]
    loader.features = {channel.name: loader.features["style"]}
    dataset, _ = corpus
    with pytest.raises(ValueError, match="'short_second_window' returned"):
        StreamWindowBuffer(loader).write(dataset.items[300:300 + W + 1])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_wrapping_ring_write_equals_a_fresh_loader(corpus, dtype):
    dataset, vocab = corpus
    encoder = FrozenPretrainedEncoder(len(vocab), output_dim=16, seed=3)
    channels = [PLMChannel(encoder), StyleChannel(), EmotionChannel(),
                TokenCountChannel()]
    with default_dtype(dtype):
        loader = DataLoader(_dataset(corpus, W + 5), vocab, max_length=MAX_LENGTH,
                            channels=channels)
        buffer = StreamWindowBuffer(loader)
        buffer.write(dataset.items[400:500])
        touched = buffer.write(dataset.items[500:500 + W])  # wraps past row W+4
        assert touched[0] == 100 and touched[-1] == 94
        fresh = DataLoader(
            MultiDomainNewsDataset(list(loader.dataset.items),
                                   domain_names=dataset.domain_names),
            vocab, max_length=MAX_LENGTH, channels=channels)
    _assert_same_bytes(loader.token_ids, fresh.token_ids)
    _assert_same_bytes(loader.mask, fresh.mask)
    assert sorted(loader.features) == sorted(fresh.features)
    for name in fresh.features:
        _assert_same_bytes(loader.features[name], fresh.features[name])


# --------------------------------------------------------------------------- #
# Bounded memory                                                               #
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def large_corpus():
    """The benchmark-size corpus (about 2,700 items) and its vocabulary."""
    dataset = make_weibo21_like(scale=0.3, seed=7)
    return dataset, dataset.build_vocabulary()


@pytest.mark.parametrize("rows", [600, 2400])
def test_construction_transient_is_bounded(large_corpus, rows):
    """A one-call float64 encode held ~29 KB per row (70 MB at 2,400 rows)."""
    dataset = _dataset(large_corpus, rows)
    vocab = large_corpus[1]
    channel = PLMChannel(FrozenPretrainedEncoder(len(vocab), output_dim=32, seed=3))
    with default_dtype("float64"):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            loader = DataLoader(dataset, vocab, max_length=MAX_LENGTH,
                                channels=[channel])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    final = sum(array.nbytes for array in (loader.token_ids, loader.mask,
                                           loader.labels, loader.domains,
                                           loader._identity,
                                           *loader.features.values()))
    transient_mb = (peak - before - final) / 2**20
    assert transient_mb < 16.0, f"{transient_mb:.1f} MB transient at {rows} rows"
