"""Online drift monitoring over per-domain rolling windows.

The monitor watches two orthogonal degradation signals per domain:

* **Score drift** — the distribution of predicted fake-probabilities inside a
  domain's rolling window, compared to a frozen *reference* window (the first
  ``reference_size`` observations after the domain was registered or last
  reset) with the population stability index.  PSI needs no labels, so it
  fires on unlabeled traffic too — the common case in production, where
  labels trail events by hours or days.
* **Bias drift** — the paper's own fairness lens made windowed: over the
  pooled labeled rolling window, a domain's deviation
  ``|FNR_d - FNR| + |FPR_d - FPR|`` (its contribution to the FNED/FPED
  totals of Eq. 16-17, via :func:`repro.metrics.fairness.rolling_domain_bias`)
  crossing a threshold means the de-biasing guarantee is being violated
  *live* for that domain.

Everything is driven by event ordinals, never wall-clock, so a replayed
schedule yields byte-identical :class:`~repro.streaming.events.DriftEvent`
logs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.metrics.fairness import DomainBiasReport, rolling_domain_bias
from repro.streaming.events import DriftEvent


def population_stability_index(reference, current, bins: int = 10,
                               epsilon: float = 1e-4) -> float:
    """PSI between two probability samples over fixed bins on ``[0, 1]``.

    Bin edges are deterministic (``bins`` equal-width bins over the unit
    interval — predicted probabilities live there by construction), and both
    histograms are epsilon-smoothed so empty bins never produce infinities.
    Conventional reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25
    significant shift.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if reference.size == 0 or current.size == 0:
        raise ValueError("PSI needs non-empty reference and current samples")
    edges = np.linspace(0.0, 1.0, bins + 1)
    reference_share = np.histogram(np.clip(reference, 0.0, 1.0), bins=edges)[0] \
        / reference.size
    current_share = np.histogram(np.clip(current, 0.0, 1.0), bins=edges)[0] \
        / current.size
    reference_share = reference_share + epsilon
    current_share = current_share + epsilon
    reference_share /= reference_share.sum()
    current_share /= current_share.sum()
    return float(np.sum((current_share - reference_share)
                        * np.log(current_share / reference_share)))


@dataclass
class DriftConfig:
    """Thresholds and window sizes of the :class:`DriftMonitor`."""

    #: rolling window length per domain (scores) and pooled (labels)
    window: int = 64
    #: minimum observations in a domain's rolling window before PSI is tested
    min_window: int = 32
    #: PSI histogram bins
    psi_bins: int = 10
    #: PSI above this fires a ``score_drift`` event (0.25 = significant)
    psi_threshold: float = 0.25
    #: per-domain bias deviation above this fires a ``bias_drift`` event
    bias_threshold: float = 0.25
    #: labeled observations needed (pooled, and for the tested domain) before
    #: the bias signal is trusted
    min_labeled: int = 16
    #: ordinals a domain stays quiet after firing (per signal kind) — one
    #: drifting domain emits one event per adaptation opportunity, not one
    #: per observation
    cooldown: int = 64
    #: observations frozen as the PSI reference after registration/reset
    reference_size: int = 32

    def __post_init__(self):
        if self.window < 2 or self.min_window < 2:
            raise ValueError("window and min_window must be >= 2")
        if self.min_window > self.window:
            raise ValueError("min_window cannot exceed window")
        if self.reference_size < 2:
            raise ValueError("reference_size must be >= 2")
        if self.min_labeled < 1:
            raise ValueError("min_labeled must be >= 1")


class _DomainTrack:
    """Rolling score window + frozen PSI reference for one domain."""

    __slots__ = ("scores", "reference", "observed")

    def __init__(self, window: int):
        self.scores: deque = deque(maxlen=window)
        self.reference: list[float] = []
        self.observed = 0


class DriftMonitor:
    """Windowed per-domain drift detection, deterministic by ordinal."""

    def __init__(self, domain_names, config: DriftConfig | None = None):
        self.config = config or DriftConfig()
        self.domain_names: list[str] = []
        self._tracks: dict[str, _DomainTrack] = {}
        #: pooled labeled history, arrival-ordered: (domain_index, y_true, y_pred)
        self._labeled: deque = deque(maxlen=self.config.window)
        #: domain -> kind -> last firing ordinal (cooldown bookkeeping)
        self._last_fired: dict[str, dict[str, int]] = {}
        self.drift_events: list[DriftEvent] = []
        for name in domain_names:
            self.register_domain(name)

    # ------------------------------------------------------------------ #
    def register_domain(self, name: str) -> None:
        """Start tracking ``name`` (seed domains and onboarded ones alike)."""
        if name in self._tracks:
            raise ValueError(f"domain '{name}' is already tracked")
        self.domain_names.append(name)
        self._tracks[name] = _DomainTrack(self.config.window)
        self._last_fired[name] = {}

    def reset_domain(self, name: str) -> None:
        """Forget ``name``'s windows and reference (call after adapting).

        The rolling window and the frozen PSI reference both cleared: the
        model just changed, so the old score distribution is no baseline for
        the new one — the next ``reference_size`` observations re-freeze it.
        Pooled labeled history for the domain is dropped too, so a fixed bias
        signal does not re-fire from stale pre-adaptation errors.
        """
        track = self._track(name)
        track.scores.clear()
        track.reference = []
        index = self.domain_names.index(name)
        self._labeled = deque(
            (entry for entry in self._labeled if entry[0] != index),
            maxlen=self.config.window)
        self._last_fired[name] = {}

    def _track(self, name: str) -> _DomainTrack:
        if name not in self._tracks:
            raise KeyError(
                f"domain '{name}' is not tracked; known domains: "
                f"{self.domain_names}. Register it first (continual "
                "onboarding calls register_domain)")
        return self._tracks[name]

    # ------------------------------------------------------------------ #
    def observe(self, ordinal: int, domain: str, probability_fake: float,
                predicted_label: int,
                true_label: int | None = None) -> "list[DriftEvent]":
        """Feed one scored event; returns the drift events it triggered."""
        track = self._track(domain)
        track.observed += 1
        if len(track.reference) < self.config.reference_size:
            # Still freezing the reference: reference observations are the
            # baseline, they are never tested against themselves.
            track.reference.append(float(probability_fake))
        else:
            track.scores.append(float(probability_fake))
        if true_label is not None:
            self._labeled.append((self.domain_names.index(domain),
                                  int(true_label), int(predicted_label)))

        fired: list[DriftEvent] = []
        score_event = self._check_score_drift(ordinal, domain, track)
        if score_event is not None:
            fired.append(score_event)
        bias_event = self._check_bias_drift(ordinal, domain)
        if bias_event is not None:
            fired.append(bias_event)
        self.drift_events.extend(fired)
        return fired

    def _cooled_down(self, ordinal: int, domain: str, kind: str) -> bool:
        last = self._last_fired[domain].get(kind)
        return last is None or ordinal - last >= self.config.cooldown

    def _check_score_drift(self, ordinal: int, domain: str,
                           track: _DomainTrack) -> DriftEvent | None:
        cfg = self.config
        if (len(track.reference) < cfg.reference_size
                or len(track.scores) < cfg.min_window
                or not self._cooled_down(ordinal, domain, "score_drift")):
            return None
        psi = population_stability_index(track.reference, list(track.scores),
                                         bins=cfg.psi_bins)
        if psi <= cfg.psi_threshold:
            return None
        self._last_fired[domain]["score_drift"] = ordinal
        return DriftEvent(
            ordinal=ordinal, domain=domain, kind="score_drift",
            value=psi, threshold=cfg.psi_threshold, window=len(track.scores),
            details={"reference_size": len(track.reference)})

    def _check_bias_drift(self, ordinal: int, domain: str) -> DriftEvent | None:
        cfg = self.config
        if (len(self._labeled) < cfg.min_labeled
                or not self._cooled_down(ordinal, domain, "bias_drift")):
            return None
        domain_index = self.domain_names.index(domain)
        domain_labeled = sum(1 for entry in self._labeled
                             if entry[0] == domain_index)
        if domain_labeled < cfg.min_labeled:
            return None
        report = self.bias_report()
        deviation = report.deviation(domain)
        if deviation <= cfg.bias_threshold:
            return None
        self._last_fired[domain]["bias_drift"] = ordinal
        return DriftEvent(
            ordinal=ordinal, domain=domain, kind="bias_drift",
            value=deviation, threshold=cfg.bias_threshold,
            window=len(self._labeled),
            details={
                "domain_labeled": domain_labeled,
                # None: the window holds no fake (FNR) or no real (FPR)
                # items of this domain, so the rate is undefined.
                "fnr_domain": (None if domain in report.fnr_undefined
                               else report.fnr_per_domain[domain]),
                "fpr_domain": (None if domain in report.fpr_undefined
                               else report.fpr_per_domain[domain]),
                "fnr_overall": report.fnr_overall,
                "fpr_overall": report.fpr_overall,
            })

    # ------------------------------------------------------------------ #
    def bias_report(self) -> DomainBiasReport:
        """Fairness report over the pooled labeled rolling window."""
        if self._labeled:
            domains, y_true, y_pred = (np.array(column, dtype=np.int64)
                                       for column in zip(*self._labeled))
        else:
            domains = y_true = y_pred = np.empty(0, dtype=np.int64)
        return rolling_domain_bias(y_true, y_pred, domains, self.domain_names,
                                   window=self.config.window)

    def snapshot(self) -> dict:
        """JSON-able monitor state summary (window fill, events fired)."""
        return {
            "domains": {
                name: {
                    "observed": track.observed,
                    "window_fill": len(track.scores),
                    "reference_frozen": (len(track.reference)
                                         >= self.config.reference_size),
                }
                for name, track in self._tracks.items()
            },
            "labeled_window_fill": len(self._labeled),
            "drift_events": len(self.drift_events),
        }


__all__ = ["DriftConfig", "DriftMonitor", "population_stability_index"]
