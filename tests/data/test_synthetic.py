"""The synthetic corpus generator: statistics fidelity and bias structure."""

import hashlib
import json

import numpy as np
import pytest

from repro.data import (
    ENGLISH_DOMAIN_SPECS,
    FAKE_LABEL,
    REAL_LABEL,
    WEIBO21_DOMAIN_SPECS,
    SyntheticCorpusConfig,
    SyntheticNewsGenerator,
    make_case_study_probes,
    make_english_like,
    make_weibo21_like,
)
from repro.data.statistics import dataset_statistics_table, domain_statistics, imbalance_summary


class TestDomainSpecs:
    def test_weibo21_totals_match_table4(self):
        total = sum(spec.total for spec in WEIBO21_DOMAIN_SPECS)
        fake = sum(spec.fake for spec in WEIBO21_DOMAIN_SPECS)
        assert total == 9128
        assert fake == 4488
        assert len(WEIBO21_DOMAIN_SPECS) == 9

    def test_english_totals_match_table5(self):
        total = sum(spec.total for spec in ENGLISH_DOMAIN_SPECS)
        fake = sum(spec.fake for spec in ENGLISH_DOMAIN_SPECS)
        assert total == 28764
        assert fake == 6763
        assert len(ENGLISH_DOMAIN_SPECS) == 3

    def test_fake_ratio(self):
        disaster = next(s for s in WEIBO21_DOMAIN_SPECS if s.name == "disaster")
        assert disaster.fake_ratio == pytest.approx(0.761, abs=0.01)


class TestGenerator:
    def test_full_scale_counts_exact(self):
        dataset = make_weibo21_like(scale=1.0, seed=0)
        stats = {row.name: row for row in domain_statistics(dataset)}
        for spec in WEIBO21_DOMAIN_SPECS:
            assert stats[spec.name].fake == spec.fake
            assert stats[spec.name].real == spec.real

    def test_scaled_counts_proportional(self):
        dataset = make_weibo21_like(scale=0.1, seed=0)
        stats = {row.name: row for row in domain_statistics(dataset)}
        for spec in WEIBO21_DOMAIN_SPECS:
            assert stats[spec.name].fake == max(4, round(spec.fake * 0.1))

    def test_english_generator(self):
        dataset = make_english_like(scale=0.02, seed=0)
        assert dataset.num_domains == 3
        assert set(dataset.domain_names) == {"gossipcop", "politifact", "covid"}

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(scale=0.0).scaled_specs()

    def test_deterministic_given_seed(self):
        a = make_weibo21_like(scale=0.05, seed=11)
        b = make_weibo21_like(scale=0.05, seed=11)
        assert [item.text for item in a][:20] == [item.text for item in b][:20]

    def test_corpus_digest_is_pinned(self):
        """The Weibo21-like corpus at the default Chinese scale, byte for byte:
        every item's id, text, labels and metadata."""
        digest = hashlib.sha256()
        for item in make_weibo21_like(scale=0.3).items:
            digest.update(json.dumps([item.item_id, item.text, item.label, item.domain,
                                      item.domain_name, item.metadata],
                                     sort_keys=True).encode())
        assert digest.hexdigest() == \
            "c25d9839f7b7db8e6a3757e3ccc08ac3be2169b68390d4284f802fc76449eb27"

    def test_different_seeds_differ(self):
        a = make_weibo21_like(scale=0.05, seed=1)
        b = make_weibo21_like(scale=0.05, seed=2)
        assert [item.text for item in a][:10] != [item.text for item in b][:10]

    def test_items_have_metadata_and_names(self, tiny_dataset):
        item = tiny_dataset[0]
        assert "has_signal" in item.metadata
        assert item.domain_name == tiny_dataset.domain_names[item.domain]
        assert len(item.text.split()) >= 5

    def test_signal_strength_controls_ambiguity(self):
        config = SyntheticCorpusConfig(scale=0.05, seed=0, signal_strength=1.0)
        dataset = SyntheticNewsGenerator(config).generate()
        assert all(item.metadata["has_signal"] for item in dataset)
        config = SyntheticCorpusConfig(scale=0.05, seed=0, signal_strength=0.0)
        dataset = SyntheticNewsGenerator(config).generate()
        assert not any(item.metadata["has_signal"] for item in dataset)

    def test_fake_items_contain_fake_signal_tokens(self):
        dataset = make_weibo21_like(scale=0.05, seed=3)
        for item in dataset:
            tokens = set(item.tokens())
            has_fake_sig = any(t.startswith("fakesig") for t in tokens)
            has_real_sig = any(t.startswith("realsig") for t in tokens)
            if item.metadata["has_signal"]:
                if item.label == FAKE_LABEL:
                    assert has_fake_sig and not has_real_sig
                else:
                    assert has_real_sig and not has_fake_sig

    def test_domain_topic_tokens_present(self):
        dataset = make_weibo21_like(scale=0.05, seed=4)
        for item in list(dataset)[:50]:
            assert any(token.startswith(item.domain_name) for token in item.tokens())


class TestCaseStudyProbes:
    def test_three_real_ambiguous_probes(self):
        probes = make_case_study_probes(dataset_seed=1)
        assert len(probes) == 3
        for probe in probes:
            assert probe.item.label == REAL_LABEL
            assert probe.item.metadata["has_signal"] is False
            assert probe.description
        domains = {probe.item.domain_name for probe in probes}
        assert {"entertainment", "politics", "disaster"} == domains


class TestStatisticsTables:
    def test_table1_percentages(self):
        dataset = make_weibo21_like(scale=1.0, seed=0)
        table = dataset_statistics_table(dataset)
        by_name = {row["domain"]: row for row in table["domains"]}
        # Numbers from Table I of the paper.
        assert by_name["science"]["pct_news"] == pytest.approx(2.6, abs=0.1)
        assert by_name["society"]["pct_news"] == pytest.approx(29.2, abs=0.2)
        assert by_name["disaster"]["pct_fake"] == pytest.approx(76.1, abs=0.2)
        assert by_name["finance"]["pct_fake"] == pytest.approx(27.4, abs=0.2)
        assert table["total"] == 9128

    def test_imbalance_summary(self, tiny_dataset):
        summary = imbalance_summary(tiny_dataset)
        assert summary["news_share_spread"] > 0
        assert summary["fake_ratio_spread"] > 0
        assert summary["fake_ratio_max"] <= 100.0
