"""Property-based tests of the metric invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    accuracy,
    domain_bias_report,
    f1_score,
    macro_f1,
)

label_arrays = st.integers(10, 80).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    ))


class TestMetricInvariants:
    @given(label_arrays)
    @settings(max_examples=50, deadline=None)
    def test_metrics_bounded(self, data):
        y_true, y_pred, domains = map(np.array, data)
        assert 0.0 <= accuracy(y_true, y_pred) <= 1.0
        assert 0.0 <= f1_score(y_true, y_pred) <= 1.0
        assert 0.0 <= macro_f1(y_true, y_pred) <= 1.0

    @given(label_arrays)
    @settings(max_examples=50, deadline=None)
    def test_perfect_prediction_is_optimal(self, data):
        y_true, _, domains = map(np.array, data)
        assert accuracy(y_true, y_true) == 1.0
        assert macro_f1(y_true, y_true) >= macro_f1(y_true, 1 - y_true)
        names = [str(i) for i in range(4)]
        assert domain_bias_report(y_true, y_true, domains, names).total == 0.0

    @given(label_arrays)
    @settings(max_examples=50, deadline=None)
    def test_equality_difference_nonnegative_and_bounded(self, data):
        y_true, y_pred, domains = map(np.array, data)
        report = domain_bias_report(y_true, y_pred, domains, [str(i) for i in range(4)])
        assert report.fned >= 0.0 and report.fped >= 0.0
        # Each domain contributes at most 1 to each equality difference.
        assert report.fned <= 4.0 and report.fped <= 4.0
        assert report.total == report.fned + report.fped

    @given(label_arrays)
    @settings(max_examples=50, deadline=None)
    def test_per_domain_rates_bounded(self, data):
        y_true, y_pred, domains = map(np.array, data)
        report = domain_bias_report(y_true, y_pred, domains, [str(i) for i in range(4)])
        for value in list(report.fnr_per_domain.values()) + list(report.fpr_per_domain.values()):
            assert 0.0 <= value <= 1.0

    @given(label_arrays)
    @settings(max_examples=30, deadline=None)
    def test_label_swap_symmetry_of_macro_f1(self, data):
        y_true, y_pred, _ = map(np.array, data)
        assert macro_f1(y_true, y_pred) == macro_f1(1 - y_true, 1 - y_pred)
