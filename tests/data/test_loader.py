"""DataLoader batching, feature channels and deterministic evaluation order."""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.encoders import StyleChannel


class TestDataLoader:
    def test_batch_shapes(self, train_loader):
        batch = next(iter(train_loader))
        assert batch.token_ids.shape[1] == train_loader.max_length
        assert batch.mask.shape == batch.token_ids.shape
        assert len(batch) == batch.labels.shape[0] == batch.domains.shape[0]

    def test_number_of_batches(self, train_loader):
        assert len(train_loader) == int(np.ceil(len(train_loader.dataset) / train_loader.batch_size))
        assert sum(len(b) for b in train_loader) == len(train_loader.dataset)

    def test_feature_channels_present(self, sample_batch):
        plm = sample_batch.feature("plm")
        assert plm.shape == (*sample_batch.token_ids.shape, 16)
        assert sample_batch.feature("style").shape[0] == len(sample_batch)
        assert sample_batch.feature("emotion").shape[0] == len(sample_batch)

    def test_missing_feature_raises(self, sample_batch):
        with pytest.raises(KeyError):
            sample_batch.feature("nonexistent")

    def test_full_batch_covers_dataset(self, val_loader):
        batch = val_loader.full_batch()
        assert len(batch) == len(val_loader.dataset)

    def test_iter_eval_is_deterministic_and_ordered(self, test_loader):
        first = np.concatenate([b.indices for b in test_loader.iter_eval()])
        second = np.concatenate([b.indices for b in test_loader.iter_eval()])
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, np.arange(len(test_loader.dataset)))

    def test_shuffle_changes_order_between_epochs(self, tiny_splits, tiny_vocab, tiny_channels):
        loader = DataLoader(tiny_splits.train, tiny_vocab, max_length=16, batch_size=16,
                            shuffle=True, seed=1, channels=tiny_channels)
        first = np.concatenate([b.indices for b in loader])
        second = np.concatenate([b.indices for b in loader])
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(np.sort(first), np.sort(second))

    def test_labels_and_domains_match_dataset(self, val_loader):
        batch = val_loader.full_batch()
        np.testing.assert_array_equal(batch.labels, val_loader.dataset.labels)
        np.testing.assert_array_equal(batch.domains, val_loader.dataset.domains)

    def test_mask_consistent_with_padding(self, sample_batch):
        padded = sample_batch.token_ids == 0
        assert (sample_batch.mask[padded] == 0).all()

    def test_invalid_batch_size(self, tiny_splits, tiny_vocab):
        with pytest.raises(ValueError):
            DataLoader(tiny_splits.train, tiny_vocab, batch_size=0)

    def test_bad_channel_shape_rejected(self, tiny_splits, tiny_vocab):
        class BrokenChannel(StyleChannel):
            def extract(self, items, token_ids, mask):
                return np.zeros((3, 2))

        with pytest.raises(ValueError, match="returned 3 rows"):
            DataLoader(tiny_splits.train, tiny_vocab, channels=[BrokenChannel()])
