"""Tables IV and V — Chinese and English dataset statistics."""

from _bench_utils import regenerate

from repro.data import ENGLISH_DOMAIN_SPECS, WEIBO21_DOMAIN_SPECS


def test_table4_chinese_dataset_statistics(benchmark):
    table = regenerate(benchmark, "table4")

    stats = {row["domain"]: row for row in table["domains"]}
    for spec in WEIBO21_DOMAIN_SPECS:
        assert stats[spec.name]["fake"] == spec.fake
        assert stats[spec.name]["real"] == spec.real
    assert table["total"] == 9128 and table["total_fake"] == 4488


def test_table5_english_dataset_statistics(benchmark):
    # The English corpus is generated at a reduced scale by default (28,764
    # items would dominate benchmark time); the ratios are scale-invariant.
    table = regenerate(benchmark, "table5")

    by_name = {row["domain"]: row for row in table["domains"]}
    full = {spec.name: spec for spec in ENGLISH_DOMAIN_SPECS}
    for name, row in by_name.items():
        expected_ratio = 100.0 * full[name].fake / full[name].total
        assert abs(row["pct_fake"] - expected_ratio) < 1.5
    # Gossipcop dominates the corpus, COVID is second, Politifact is tiny.
    assert by_name["gossipcop"]["total"] > by_name["covid"]["total"] > by_name["politifact"]["total"]
