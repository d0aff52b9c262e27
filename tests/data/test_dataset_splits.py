"""NewsItem / MultiDomainNewsDataset containers and stratified splitting."""

import numpy as np
import pytest

from repro.data import (
    FAKE_LABEL,
    REAL_LABEL,
    MultiDomainNewsDataset,
    NewsItem,
    Vocabulary,
    stratified_split,
)


class TestNewsItem:
    def test_tokens(self):
        item = NewsItem(text="Alpha beta GAMMA", label=1, domain=0)
        assert item.tokens() == ["alpha", "beta", "gamma"]

    def test_metadata_default(self):
        item = NewsItem(text="x", label=0, domain=0)
        assert item.metadata == {}


class TestDataset:
    def test_basic_accessors(self, manual_dataset):
        assert len(manual_dataset) == 7
        assert manual_dataset.num_domains == 2
        assert manual_dataset[0].domain_name == "sports"
        np.testing.assert_array_equal(np.sort(np.unique(manual_dataset.labels)), [0, 1])
        assert manual_dataset.domains.sum() == 3  # three tech items

    def test_invalid_domain_rejected(self):
        items = [NewsItem(text="x", label=0, domain=5)]
        with pytest.raises(ValueError):
            MultiDomainNewsDataset(items, ["only"])

    def test_invalid_label_rejected(self):
        items = [NewsItem(text="x", label=7, domain=0)]
        with pytest.raises(ValueError):
            MultiDomainNewsDataset(items, ["only"])

    def test_subset(self, manual_dataset):
        subset = manual_dataset.subset([0, 1, 4])
        assert len(subset) == 3
        assert [item.text for item in subset] == [
            manual_dataset.items[i].text for i in (0, 1, 4)]

    def test_build_vocabulary_and_encode(self, manual_dataset):
        vocab = manual_dataset.build_vocabulary()
        token_ids, mask = manual_dataset.encode(vocab, max_length=5)
        assert token_ids.shape == (7, 5)
        assert mask.shape == (7, 5)
        assert mask[0].sum() == 3  # three tokens in the first item
        assert (token_ids[mask == 0] == vocab.pad_id).all()

    def test_summary_counts(self, manual_dataset):
        summary = manual_dataset.summary()
        assert summary["domains"]["sports"]["fake"] == 2
        assert summary["domains"]["tech"]["real"] == 2
        assert summary["size"] == 7


class TestStratifiedSplit:
    def test_fractions_and_disjointness(self, tiny_dataset):
        splits = stratified_split(tiny_dataset, train_fraction=0.6, val_fraction=0.2, seed=1)
        total = len(splits.train) + len(splits.val) + len(splits.test)
        assert total == len(tiny_dataset)
        ids = [item.item_id for split in (splits.train, splits.val, splits.test)
               for item in split]
        assert len(ids) == len(set(ids))
        assert abs(len(splits.train) / total - 0.6) < 0.08

    def test_every_domain_in_every_split(self, tiny_dataset):
        splits = stratified_split(tiny_dataset, seed=2)
        for split in (splits.train, splits.test):
            assert set(np.unique(split.domains)) == set(range(tiny_dataset.num_domains))

    def test_fake_ratio_preserved(self, tiny_dataset):
        splits = stratified_split(tiny_dataset, seed=3)
        overall = tiny_dataset.labels.mean()
        assert abs(splits.train.labels.mean() - overall) < 0.1
        assert abs(splits.test.labels.mean() - overall) < 0.1

    def test_deterministic_given_seed(self, tiny_dataset):
        a = stratified_split(tiny_dataset, seed=5)
        b = stratified_split(tiny_dataset, seed=5)
        assert [i.item_id for i in a.train] == [i.item_id for i in b.train]

    def test_invalid_fractions(self, tiny_dataset):
        with pytest.raises(ValueError):
            stratified_split(tiny_dataset, train_fraction=0.0)
        with pytest.raises(ValueError):
            stratified_split(tiny_dataset, train_fraction=0.8, val_fraction=0.3)

    def test_sizes_helper(self, tiny_dataset):
        splits = stratified_split(tiny_dataset, seed=0)
        sizes = splits.sizes()
        assert sizes["train"] == len(splits.train)
        assert set(sizes) == {"train", "val", "test"}
