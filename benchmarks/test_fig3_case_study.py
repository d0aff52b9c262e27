"""Figure 3 — case study on ambiguous real news from prior-skewed domains.

The probes are real news items with no explicit veracity signal from
entertainment (fake-light) and politics / disaster (fake-heavy) — the same
failure mode as the paper's three examples.  The claim checked: DTDBD assigns
at least as much probability to the true label as the clean baselines do on
average, i.e. it resists the domain prior.
"""

import numpy as np
from _bench_utils import regenerate


def test_figure3_case_study(benchmark, chinese_config, chinese_bundle):
    results = regenerate(benchmark, "fig3", chinese_config, chinese_bundle)
    rows, summary = results["rows"], results["summary"]

    assert len(rows) == 3
    assert set(summary) == {"m3fend", "mdfend", "dtdbd"}
    baseline_confidence = np.mean([summary["m3fend"]["mean_confidence_true_label"],
                                   summary["mdfend"]["mean_confidence_true_label"]])
    # DTDBD should not be less confident in the truth than the baselines by a
    # wide margin (the paper shows it being both more accurate and more confident).
    assert summary["dtdbd"]["mean_confidence_true_label"] >= baseline_confidence - 0.1
