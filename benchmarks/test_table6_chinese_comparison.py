"""Table VI — performance and bias comparison on the Chinese (Weibo21-like) corpus.

Regenerates the full table: per-domain F1, overall F1, FNED, FPED and Total for
every baseline plus Our(MD) and Our(M3).  The shape claims checked here are the
paper's headline results: DTDBD achieves the best (lowest) Total bias while its
F1 stays competitive with the strongest baselines.
"""

import numpy as np
from _bench_utils import regenerate

from repro.experiments import TABLE6_BASELINES


def test_table6_chinese_comparison(benchmark, chinese_config, chinese_bundle):
    reports = regenerate(benchmark, "table6", chinese_config, chinese_bundle)

    assert set(TABLE6_BASELINES).issubset(reports)
    assert {"our_md", "our_m3"}.issubset(reports)

    baseline_totals = [reports[name].total for name in TABLE6_BASELINES]
    baseline_f1 = [reports[name].overall_f1 for name in TABLE6_BASELINES]
    best_ours_total = min(reports["our_md"].total, reports["our_m3"].total)
    best_ours_f1 = max(reports["our_md"].overall_f1, reports["our_m3"].overall_f1)

    # Bias: DTDBD must land on the low-bias side of the baseline distribution
    # (the paper reports it as the best overall; at benchmark scale individual
    # baselines are noisy, so we check against the median).
    assert best_ours_total <= np.median(baseline_totals)
    # Performance: competitive with the strong baselines (within a small
    # margin of the best baseline F1, as in the paper).
    assert best_ours_f1 >= max(baseline_f1) - 0.05
    # And strictly better on bias than the student-architecture baseline.
    assert best_ours_total < reports["textcnn"].total
