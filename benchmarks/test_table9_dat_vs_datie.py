"""Table IX — traditional DAT versus the paper's DAT-IE.

Shape claims: both adversarial variants reduce the student's domain bias, and
DAT-IE keeps F1 at least as high as plain DAT (the information-entropy term
prevents the "single most relevant domain" shortcut).
"""

from _bench_utils import regenerate


def test_table9_dat_vs_dat_ie(benchmark, chinese_config, chinese_bundle):
    results = regenerate(benchmark, "table9", chinese_config, chinese_bundle)

    for name, rows in results.items():
        assert set(rows) == {"student", "student+dat", "student+dat_ie"}, name

    import numpy as np

    def mean_over_students(row_name, attribute):
        return float(np.mean([getattr(results[s][row_name], attribute) for s in results]))

    # Averaged over the two student architectures (single runs are noisy):
    # DAT-IE mitigates the student's bias ...
    assert mean_over_students("student+dat_ie", "total") < mean_over_students("student", "total")
    # ... at least as well as plain DAT (the paper's Table IX ordering) ...
    assert mean_over_students("student+dat_ie", "total") <= mean_over_students("student+dat", "total") * 1.05
    # ... while keeping F1 no worse than plain DAT (information-entropy term
    # prevents the single-domain shortcut).
    assert mean_over_students("student+dat_ie", "overall_f1") >= \
        mean_over_students("student+dat", "overall_f1") - 0.03
