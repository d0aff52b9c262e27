"""Figure 2 — t-SNE of intermediate features, quantified as a domain-mixing score.

The paper's visual claim is that the DTDBD student mixes samples from different
domains in feature space more than the plain student / M3FEND do (while the
DAT-IE-only model separates domains even more strongly than the student).  We
quantify "mixing" as the normalised entropy of domain labels among t-SNE
nearest neighbours.
"""

from _bench_utils import regenerate


def test_figure2_domain_mixing_scores(benchmark, chinese_config, chinese_bundle):
    scores = regenerate(benchmark, "fig2", chinese_config, chinese_bundle)

    assert set(scores) == {"m3fend", "textcnn_u", "textcnn_u+dat_ie", "textcnn_u+dtdbd"}
    for result in scores.values():
        assert 0.0 <= result["mixing_score"] <= 1.0
        assert result["num_points"] > 50
    # Core claim: the DTDBD student's features are at least as domain-mixed as
    # the plain student's (it learned cross-domain structure, not domain identity).
    assert scores["textcnn_u+dtdbd"]["mixing_score"] >= scores["textcnn_u"]["mixing_score"] - 0.05
