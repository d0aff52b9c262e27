"""Table VII — performance and bias comparison on the English corpus.

Paper shape: on English data DTDBD again achieves the lowest Total bias, while
its F1 is slightly below the strongest multi-domain baselines (MDFEND /
M3FEND) because the three English domains share little content.
"""

import numpy as np
from _bench_utils import regenerate

from repro.experiments import TABLE7_BASELINES


def test_table7_english_comparison(benchmark, english_config, english_bundle):
    reports = regenerate(benchmark, "table7", english_config, english_bundle)

    assert set(TABLE7_BASELINES).issubset(reports)
    baseline_totals = [reports[name].total for name in TABLE7_BASELINES]
    baseline_f1 = [reports[name].overall_f1 for name in TABLE7_BASELINES]
    best_ours_total = min(reports["our_md"].total, reports["our_m3"].total)
    best_ours_f1 = max(reports["our_md"].overall_f1, reports["our_m3"].overall_f1)

    # The paper's English-dataset margins are small (DTDBD 0.26 vs EANN 0.27),
    # so at benchmark scale we check the robust versions of its claims:
    # (1) distilling from the biased clean teacher reduces its bias —
    #     Our(MD) is less biased than MDFEND itself;
    assert reports["our_md"].total < reports["mdfend"].total
    # (2) DTDBD never sits at the biased end of the field;
    assert best_ours_total <= np.percentile(baseline_totals, 80)
    # (3) F1 remains within a reasonable margin of the best baseline (the
    #     paper itself reports a gap to MDFEND / M3FEND on English data).
    assert best_ours_f1 >= max(baseline_f1) - 0.10
