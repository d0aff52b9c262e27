"""Table II — functional comparison of fake-news detection methods (static)."""

from _bench_utils import regenerate


def test_table2_functional_comparison(benchmark):
    comparison = regenerate(benchmark, "table2")

    ours = comparison["DTDBD (ours)"]
    assert ours["multi_domain"] and ours["debiasing"]
    assert ours["bias_type"] == "Domain"
    # Only the de-biasing rows declare a bias type, as in the paper.
    for method, caps in comparison.items():
        if not caps["debiasing"]:
            assert caps["bias_type"] is None, method
