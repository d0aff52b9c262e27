"""Drift monitor: PSI, windowed bias deviation, cooldowns and resets."""

import numpy as np
import pytest

from repro.streaming import DriftConfig, DriftMonitor, population_stability_index


class TestPSI:
    def test_identical_samples_near_zero(self):
        rng = np.random.default_rng(0)
        sample = rng.random(500)
        assert population_stability_index(sample, sample) == pytest.approx(
            0.0, abs=1e-9)

    def test_shifted_distribution_is_large(self):
        rng = np.random.default_rng(1)
        low = rng.uniform(0.0, 0.3, 400)
        high = rng.uniform(0.7, 1.0, 400)
        assert population_stability_index(low, high) > 1.0

    def test_symmetric_in_direction_of_shift(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, 0.5, 300)
        b = rng.uniform(0.5, 1.0, 300)
        forward = population_stability_index(a, b)
        backward = population_stability_index(b, a)
        assert forward == pytest.approx(backward, rel=1e-6)

    def test_out_of_range_values_clipped_not_dropped(self):
        # Degenerate inputs outside [0, 1] still land in the edge bins.
        value = population_stability_index([-0.5, 0.2], [1.5, 0.2])
        assert np.isfinite(value)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="bins must be >= 2"):
            population_stability_index([0.1], [0.2], bins=1)
        with pytest.raises(ValueError, match="non-empty"):
            population_stability_index([], [0.2])
        with pytest.raises(ValueError, match="non-empty"):
            population_stability_index([0.1], [])


class TestDriftConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(window=1)
        with pytest.raises(ValueError):
            DriftConfig(window=8, min_window=16)
        with pytest.raises(ValueError):
            DriftConfig(reference_size=1)
        with pytest.raises(ValueError):
            DriftConfig(min_labeled=0)


def _config(**overrides):
    base = dict(window=8, min_window=4, reference_size=4, min_labeled=4,
                cooldown=10, psi_threshold=0.25, bias_threshold=0.25)
    base.update(overrides)
    return DriftConfig(**base)


class TestScoreDrift:
    def _feed(self, monitor, domain, values, start=0, labels=None):
        fired = []
        for offset, value in enumerate(values):
            predicted = int(value >= 0.5)
            true = labels[offset] if labels is not None else None
            fired.extend(monitor.observe(start + offset, domain, value,
                                         predicted, true))
        return fired

    def test_fires_after_reference_and_window_fill(self):
        monitor = DriftMonitor(["a", "b"], _config())
        # Reference: low scores.  Rolling window: high scores — clear shift.
        fired = self._feed(monitor, "a", [0.1, 0.12, 0.08, 0.11])
        assert fired == []  # reference still freezing, nothing to test against
        fired = self._feed(monitor, "a", [0.9, 0.92, 0.88, 0.95], start=4)
        assert len(fired) == 1
        event = fired[0]
        assert event.kind == "score_drift"
        assert event.domain == "a"
        assert event.value > event.threshold
        assert monitor.drift_events == [event]

    def test_stable_scores_never_fire(self):
        monitor = DriftMonitor(["a"], _config())
        fired = self._feed(monitor, "a", [0.3] * 20)
        assert fired == []

    def test_cooldown_suppresses_refiring(self):
        monitor = DriftMonitor(["a"], _config(cooldown=100))
        self._feed(monitor, "a", [0.1] * 4)
        fired = self._feed(monitor, "a", [0.9] * 30, start=4)
        assert len(fired) == 1  # still drifting, but inside the cooldown

    def test_refires_after_cooldown(self):
        monitor = DriftMonitor(["a"], _config(cooldown=5))
        self._feed(monitor, "a", [0.1] * 4)
        fired = self._feed(monitor, "a", [0.9] * 30, start=4)
        assert len(fired) > 1

    def test_reset_clears_reference_and_cooldown(self):
        monitor = DriftMonitor(["a"], _config(cooldown=1000))
        self._feed(monitor, "a", [0.1] * 4)
        assert len(self._feed(monitor, "a", [0.9] * 6, start=4)) == 1
        monitor.reset_domain("a")
        # New reference freezes on the post-reset distribution; the same high
        # scores are now the baseline and must not fire.
        fired = self._feed(monitor, "a", [0.9] * 10, start=100)
        assert fired == []

    def test_domains_are_independent(self):
        monitor = DriftMonitor(["a", "b"], _config())
        self._feed(monitor, "a", [0.1] * 4)
        self._feed(monitor, "b", [0.5] * 12)
        fired = self._feed(monitor, "a", [0.9] * 6, start=50)
        assert [event.domain for event in fired] == ["a"]

    def test_unknown_domain_rejected(self):
        monitor = DriftMonitor(["a"], _config())
        with pytest.raises(KeyError, match="not tracked"):
            monitor.observe(0, "mystery", 0.5, 1)

    def test_register_duplicate_rejected(self):
        monitor = DriftMonitor(["a"], _config())
        with pytest.raises(ValueError, match="already tracked"):
            monitor.register_domain("a")

    def test_registered_domain_starts_tracking(self):
        monitor = DriftMonitor(["a"], _config())
        monitor.register_domain("new")
        self._feed(monitor, "new", [0.1] * 4)
        fired = self._feed(monitor, "new", [0.9] * 6, start=10)
        assert [event.domain for event in fired] == ["new"]


class TestBiasDrift:
    def test_fires_when_one_domain_degrades(self):
        config = _config(window=32, min_labeled=4, psi_threshold=10.0)
        monitor = DriftMonitor(["good", "bad"], config)
        fired = []
        ordinal = 0
        # Domain "good": always correct.  Domain "bad": always wrong on fakes.
        for _ in range(8):
            fired.extend(monitor.observe(ordinal, "good", 0.9, 1, 1))
            ordinal += 1
            fired.extend(monitor.observe(ordinal, "bad", 0.1, 0, 1))
            ordinal += 1
        kinds = {event.kind for event in fired}
        assert kinds == {"bias_drift"}
        assert {event.domain for event in fired} <= {"good", "bad"}
        bad = [event for event in fired if event.domain == "bad"][0]
        assert bad.value > bad.threshold
        assert bad.details["fnr_domain"] == pytest.approx(1.0)

    def test_domain_without_fakes_neither_fires_nor_crashes(self):
        # Domain "real": only real items, all scored correctly; its FNR is
        # undefined.  Domain "mixed" misses half its fakes, so the pooled
        # FNR is 0.5 — a 0.0 stand-in FNR for "real" would deviate by 0.5.
        config = _config(window=32, min_labeled=4, psi_threshold=10.0)
        monitor = DriftMonitor(["real", "mixed"], config)
        fired = []
        for ordinal in range(8):
            fired.extend(monitor.observe(2 * ordinal, "real", 0.1, 0, 0))
            label = ordinal % 2
            predicted = 0 if ordinal % 4 == 1 else label
            fired.extend(monitor.observe(2 * ordinal + 1, "mixed",
                                         0.9 if predicted else 0.1, predicted, label))
        report = monitor.bias_report()
        assert report.fnr_undefined == ["real"]
        assert report.fnr_overall == pytest.approx(0.5)
        assert report.deviation("real") == 0.0
        assert all(event.domain != "real" for event in fired)

    def test_event_details_name_undefined_rates(self):
        # Only fakes: every domain's FPR is undefined.
        config = _config(window=32, min_labeled=4, psi_threshold=10.0)
        monitor = DriftMonitor(["good", "bad"], config)
        fired = []
        for ordinal in range(8):
            fired.extend(monitor.observe(2 * ordinal, "good", 0.9, 1, 1))
            fired.extend(monitor.observe(2 * ordinal + 1, "bad", 0.1, 0, 1))
        assert fired
        assert all(event.details["fpr_domain"] is None for event in fired)

    def test_needs_per_domain_labeled_minimum(self):
        config = _config(window=32, min_labeled=6, psi_threshold=10.0)
        monitor = DriftMonitor(["good", "bad"], config)
        fired = []
        for ordinal in range(10):
            fired.extend(monitor.observe(ordinal, "good", 0.9, 1, 1))
        # Only one labeled "bad" observation: pooled minimum is met but the
        # domain's own evidence is too thin to accuse it.
        fired.extend(monitor.observe(50, "bad", 0.1, 0, 1))
        assert all(event.domain != "bad" for event in fired)

    def test_unlabeled_traffic_never_triggers_bias(self):
        monitor = DriftMonitor(["a"], _config(psi_threshold=10.0))
        fired = []
        for ordinal in range(30):
            fired.extend(monitor.observe(ordinal, "a", 0.9, 1, None))
        assert fired == []

    def test_bias_report_covers_pooled_window(self):
        monitor = DriftMonitor(["a", "b"], _config(window=32))
        for ordinal in range(4):
            monitor.observe(ordinal, "a", 0.9, 1, 0)   # false positives
            monitor.observe(100 + ordinal, "b", 0.1, 0, 0)
        report = monitor.bias_report()
        assert report.fpr_per_domain["a"] == pytest.approx(1.0)
        assert report.fpr_per_domain["b"] == pytest.approx(0.0)

    def test_snapshot_shape(self):
        monitor = DriftMonitor(["a"], _config())
        monitor.observe(0, "a", 0.4, 0, 1)
        snapshot = monitor.snapshot()
        assert snapshot["domains"]["a"]["observed"] == 1
        assert snapshot["domains"]["a"]["reference_frozen"] is False
        assert snapshot["labeled_window_fill"] == 1
        assert snapshot["drift_events"] == 0
