"""Domain-bias metrics: FNR/FPR, FPED, FNED and Total."""

import numpy as np
import pytest

from repro.metrics import (
    domain_bias_report,
    false_negative_rate,
    false_positive_rate,
    fned,
    fped,
    rolling_domain_bias,
)
from repro.metrics.fairness import DomainBiasReport


class TestErrorRates:
    def test_false_positive_rate(self):
        y_true = np.array([0, 0, 0, 1])
        y_pred = np.array([1, 0, 1, 1])
        assert false_positive_rate(y_true, y_pred) == pytest.approx(2 / 3)

    def test_false_negative_rate(self):
        y_true = np.array([1, 1, 1, 0])
        y_pred = np.array([0, 1, 0, 0])
        assert false_negative_rate(y_true, y_pred) == pytest.approx(2 / 3)

    def test_degenerate_classes(self):
        assert false_positive_rate(np.array([1, 1]), np.array([1, 1])) == 0.0
        assert false_negative_rate(np.array([0, 0]), np.array([0, 0])) == 0.0


class TestDomainBiasReport:
    def _toy(self):
        #            domain 0 (4 items)     | domain 1 (4 items)
        y_true = np.array([1, 1, 0, 0,        1, 1, 0, 0])
        y_pred = np.array([1, 0, 1, 0,        1, 1, 0, 0])
        domains = np.array([0, 0, 0, 0,       1, 1, 1, 1])
        return y_true, y_pred, domains

    def test_per_domain_rates(self):
        report = domain_bias_report(*self._toy(), domain_names=["a", "b"])
        assert report.fnr_per_domain["a"] == pytest.approx(0.5)
        assert report.fpr_per_domain["a"] == pytest.approx(0.5)
        assert report.fnr_per_domain["b"] == 0.0
        assert report.fpr_per_domain["b"] == 0.0

    def test_equality_differences(self):
        report = domain_bias_report(*self._toy(), domain_names=["a", "b"])
        # Overall FNR = 0.25, FPR = 0.25; |0.25-0.5| + |0.25-0| = 0.5 each.
        assert report.fned == pytest.approx(0.5)
        assert report.fped == pytest.approx(0.5)
        assert report.total == pytest.approx(1.0)

    def test_unbiased_predictions_give_zero(self):
        y_true = np.array([1, 0, 1, 0])
        domains = np.array([0, 0, 1, 1])
        report = domain_bias_report(y_true, y_true, domains, ["a", "b"])
        assert report.total == 0.0

    def test_functional_wrappers(self):
        y_true, y_pred, domains = self._toy()
        assert fned(y_true, y_pred, domains, 2) == pytest.approx(0.5)
        assert fped(y_true, y_pred, domains, 2) == pytest.approx(0.5)

    def test_empty_domain_contributes_zero(self):
        y_true = np.array([1, 0])
        y_pred = np.array([1, 0])
        domains = np.array([0, 0])
        report = domain_bias_report(y_true, y_pred, domains, ["a", "b"])
        assert report.fnr_per_domain["b"] == 0.0
        assert report.total == 0.0

    def test_domain_without_fakes_is_left_out_of_fned(self):
        #            domain a: 2 fakes, 2 reals | domain b: reals only
        y_true = np.array([1, 1, 0, 0,          0, 0, 0, 0])
        y_pred = np.array([1, 0, 1, 0,          0, 0, 0, 1])
        domains = np.array([0, 0, 0, 0,         1, 1, 1, 1])
        report = domain_bias_report(y_true, y_pred, domains, ["a", "b"])
        assert report.fnr_undefined == ["b"]
        assert report.fpr_undefined == []
        # Overall FNR = 0.5 = FNR_a, so FNED is 0: b's undefined FNR adds
        # nothing (a 0.0 stand-in would have added the whole 0.5).
        assert report.fned == 0.0
        # Overall FPR = 2/6; FPR_a = 1/2, FPR_b = 1/4.
        assert report.fped == pytest.approx(abs(2 / 6 - 1 / 2) + abs(2 / 6 - 1 / 4))
        assert report.deviation("b") == pytest.approx(abs(2 / 6 - 1 / 4))
        assert sum(report.deviation(name) for name in report.domain_names) \
            == pytest.approx(report.total)

    def test_domain_without_reals_is_left_out_of_fped(self):
        y_true = np.array([1, 0, 1, 1])
        y_pred = np.array([1, 1, 1, 1])
        domains = np.array([0, 0, 1, 1])
        report = domain_bias_report(y_true, y_pred, domains, ["a", "b"])
        assert report.fpr_undefined == ["b"]
        assert report.fped == 0.0

    def test_undefined_domains_survive_round_trip(self):
        y_true = np.array([1, 0, 0, 0])
        y_pred = np.array([1, 0, 1, 0])
        domains = np.array([0, 0, 1, 1])
        report = domain_bias_report(y_true, y_pred, domains, ["a", "b", "c"])
        assert report.fnr_undefined == ["b", "c"]
        assert report.fpr_undefined == ["c"]
        assert DomainBiasReport.from_dict(report.as_dict()) == report

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            domain_bias_report(np.array([0, 1]), np.array([0]), np.array([0, 0]), ["a"])

    def test_as_dict_round_trip(self):
        report = domain_bias_report(*self._toy(), domain_names=["a", "b"])
        payload = report.as_dict()
        assert payload["total"] == pytest.approx(report.total)
        assert set(payload["fnr_per_domain"]) == {"a", "b"}

    def test_more_biased_predictions_have_larger_total(self):
        rng = np.random.default_rng(0)
        domains = np.repeat(np.arange(4), 50)
        y_true = rng.integers(0, 2, 200)
        fair_pred = y_true.copy()
        flip = rng.random(200) < 0.1
        fair_pred[flip] = 1 - fair_pred[flip]
        biased_pred = y_true.copy()
        biased_pred[domains == 0] = 1   # always call domain 0 fake
        biased_pred[domains == 1] = 0   # always call domain 1 real
        names = [str(i) for i in range(4)]
        fair_total = domain_bias_report(y_true, fair_pred, domains, names).total
        biased_total = domain_bias_report(y_true, biased_pred, domains, names).total
        assert biased_total > fair_total


class TestFromDict:
    def _report(self):
        y_true = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        y_pred = np.array([1, 0, 1, 0, 1, 1, 0, 0])
        domains = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        return domain_bias_report(y_true, y_pred, domains, ["a", "b"])

    def test_round_trip_preserves_every_field(self):
        report = self._report()
        restored = DomainBiasReport.from_dict(report.as_dict())
        assert restored == report
        assert restored.total == pytest.approx(report.total)

    def test_json_round_trip(self):
        import json

        report = self._report()
        restored = DomainBiasReport.from_dict(
            json.loads(json.dumps(report.as_dict())))
        assert restored == report

    def test_recovers_domain_order(self):
        restored = DomainBiasReport.from_dict(self._report().as_dict())
        assert restored.domain_names == ["a", "b"]

    def test_rejects_non_report_payloads(self):
        with pytest.raises(ValueError, match="not a serialised"):
            DomainBiasReport.from_dict({"fnr_overall": 0.1})
        with pytest.raises(ValueError, match="not a serialised"):
            DomainBiasReport.from_dict({})

    def test_rejects_mismatched_domain_sets(self):
        payload = self._report().as_dict()
        payload["fpr_per_domain"] = {"a": 0.0, "c": 0.0}
        with pytest.raises(ValueError, match="different domains"):
            DomainBiasReport.from_dict(payload)

    def test_deviation_is_per_domain_total_contribution(self):
        report = self._report()
        assert sum(report.deviation(name) for name in report.domain_names) \
            == pytest.approx(report.total)
        expected = (abs(report.fnr_per_domain["a"] - report.fnr_overall)
                    + abs(report.fpr_per_domain["a"] - report.fpr_overall))
        assert report.deviation("a") == pytest.approx(expected)

    def test_deviation_unknown_domain(self):
        with pytest.raises(KeyError, match="unknown domain"):
            self._report().deviation("nope")


class TestRollingDomainBias:
    def test_matches_full_report_when_window_covers_history(self):
        y_true = np.array([1, 0, 1, 0, 1, 0])
        y_pred = np.array([1, 1, 0, 0, 1, 0])
        domains = np.array([0, 0, 0, 1, 1, 1])
        full = domain_bias_report(y_true, y_pred, domains, ["a", "b"])
        rolled = rolling_domain_bias(y_true, y_pred, domains, ["a", "b"],
                                     window=100)
        assert rolled == full

    def test_only_trailing_window_contributes(self):
        # Old traffic: domain 0 always wrong.  Recent traffic: perfect.
        y_true = np.array([1, 1, 1, 1, 1, 0, 1, 0])
        y_pred = np.array([0, 0, 0, 0, 1, 0, 1, 0])
        domains = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        rolled = rolling_domain_bias(y_true, y_pred, domains, ["a", "b"],
                                     window=4)
        assert rolled.total == pytest.approx(0.0)
        full = rolling_domain_bias(y_true, y_pred, domains, ["a", "b"],
                                   window=8)
        assert full.total > 0.0

    def test_window_slides_with_arrival_order(self):
        y_true = np.array([1, 1, 0, 0])
        y_pred = np.array([0, 0, 0, 0])
        domains = np.array([0, 0, 1, 1])
        rolled = rolling_domain_bias(y_true, y_pred, domains, ["a", "b"],
                                     window=2)
        # Only the two domain-1 negatives remain: no errors at all.
        assert rolled.fnr_per_domain == {"a": 0.0, "b": 0.0}
        assert rolled.fnr_overall == 0.0

    def test_rejects_bad_window_and_shapes(self):
        with pytest.raises(ValueError, match="window must be positive"):
            rolling_domain_bias(np.array([1]), np.array([1]), np.array([0]),
                                ["a"], window=0)
        with pytest.raises(ValueError, match="identical shapes"):
            rolling_domain_bias(np.array([1, 0]), np.array([1]),
                                np.array([0, 0]), ["a"], window=4)
