"""Table I — Weibo21 per-domain %Fake / %News statistics."""

from _bench_utils import regenerate


def test_table1_weibo21_statistics(benchmark):
    table = regenerate(benchmark, "table1")["statistics"]

    by_name = {row["domain"]: row for row in table["domains"]}
    # The paper's Table I numbers must be reproduced exactly at full scale.
    assert table["total"] == 9128
    assert abs(by_name["science"]["pct_news"] - 2.6) < 0.1
    assert abs(by_name["society"]["pct_news"] - 29.2) < 0.2
    assert abs(by_name["disaster"]["pct_fake"] - 76.1) < 0.2
    assert abs(by_name["finance"]["pct_fake"] - 27.4) < 0.2
