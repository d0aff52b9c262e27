"""Table III — FNR/FPR of four advanced baselines on the four skewed domains.

Shape check from the paper: models over-call "fake" (high FPR) on the
fake-heavy domains (disaster, politics) and over-call "real" (high FNR) on the
real-heavy domains (finance, entertainment).
"""

import numpy as np
from _bench_utils import regenerate

from repro.analysis import TABLE3_MODELS


def test_table3_domain_bias_of_advanced_baselines(benchmark, chinese_config, chinese_bundle):
    results = regenerate(benchmark, "table3", chinese_config, chinese_bundle)
    summary = results["skew"]
    fake_heavy_fpr = np.mean([s["fake_heavy_fpr"] for s in summary.values()])
    fake_heavy_fnr = np.mean([s["fake_heavy_fnr"] for s in summary.values()])
    real_heavy_fpr = np.mean([s["real_heavy_fpr"] for s in summary.values()])
    real_heavy_fnr = np.mean([s["real_heavy_fnr"] for s in summary.values()])

    assert set(results["table"]) == set(TABLE3_MODELS)
    # Paper's qualitative claim, on average across the four baselines:
    assert fake_heavy_fpr > real_heavy_fpr
    assert real_heavy_fnr > fake_heavy_fnr
