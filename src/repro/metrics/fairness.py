"""Domain-bias metrics: FNR/FPR per domain, FPED, FNED and Total.

These implement Section VI-A-3 of the paper:

* ``FPED = sum_d |FPR - FPR_d|`` (Eq. 16)
* ``FNED = sum_d |FNR - FNR_d|`` (Eq. 17)
* ``Total = FPED + FNED``

A domain's FNR is undefined when it has no fake items and its FPR when it
has no real ones; such a domain is left out of that sum (it would otherwise
add the whole overall rate) and the report names it.

together with Definition 3 (domain disparate mistreatment), which holds when
every pair of domains has (approximately) equal FNR and FPR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import FAKE_LABEL, REAL_LABEL


def false_positive_rate(y_true: np.ndarray, y_pred: np.ndarray,
                        positive_class: int = FAKE_LABEL) -> float:
    """P(predict positive | actually negative); 0 when there are no negatives."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    negatives = y_true != positive_class
    if not np.any(negatives):
        return 0.0
    return float((y_pred[negatives] == positive_class).mean())


def false_negative_rate(y_true: np.ndarray, y_pred: np.ndarray,
                        positive_class: int = FAKE_LABEL) -> float:
    """P(predict negative | actually positive); 0 when there are no positives."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    positives = y_true == positive_class
    if not np.any(positives):
        return 0.0
    return float((y_pred[positives] != positive_class).mean())


@dataclass
class DomainBiasReport:
    """Per-domain error rates plus the aggregated equality differences."""

    domain_names: list[str]
    fnr_overall: float
    fpr_overall: float
    fnr_per_domain: dict[str, float]
    fpr_per_domain: dict[str, float]
    fned: float
    fped: float
    #: domains without fake items: their FNR is undefined (reported as 0.0)
    #: and they are left out of ``fned``
    fnr_undefined: list[str] = field(default_factory=list)
    #: domains without real items: their FPR is undefined (reported as 0.0)
    #: and they are left out of ``fped``
    fpr_undefined: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.fned + self.fped

    def as_dict(self) -> dict:
        return {
            "fnr_overall": self.fnr_overall,
            "fpr_overall": self.fpr_overall,
            "fnr_per_domain": dict(self.fnr_per_domain),
            "fpr_per_domain": dict(self.fpr_per_domain),
            "fned": self.fned,
            "fped": self.fped,
            "total": self.total,
            "fnr_undefined": list(self.fnr_undefined),
            "fpr_undefined": list(self.fpr_undefined),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DomainBiasReport":
        """Rebuild a report serialised by :meth:`as_dict`.

        The serialised form carries no explicit ``domain_names`` entry (the
        schema predates this constructor and stays unchanged); the names are
        recovered from the key order of ``fnr_per_domain``, which
        :func:`domain_bias_report` populates in domain order for *every*
        domain, including empty ones.
        """
        try:
            fnr_per_domain = dict(payload["fnr_per_domain"])
            fpr_per_domain = dict(payload["fpr_per_domain"])
            report = cls(
                domain_names=list(fnr_per_domain),
                fnr_overall=float(payload["fnr_overall"]),
                fpr_overall=float(payload["fpr_overall"]),
                fnr_per_domain={k: float(v) for k, v in fnr_per_domain.items()},
                fpr_per_domain={k: float(v) for k, v in fpr_per_domain.items()},
                fned=float(payload["fned"]),
                fped=float(payload["fped"]),
                fnr_undefined=[str(name) for name in payload.get("fnr_undefined", ())],
                fpr_undefined=[str(name) for name in payload.get("fpr_undefined", ())],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"not a serialised DomainBiasReport: {error}") from error
        if set(report.fpr_per_domain) != set(report.fnr_per_domain):
            raise ValueError(
                "not a serialised DomainBiasReport: fnr_per_domain and "
                "fpr_per_domain cover different domains")
        return report

    def deviation(self, domain: str) -> float:
        """Per-domain bias deviation ``|FNR_d - FNR| + |FPR_d - FPR|``.

        The per-domain contribution to ``total``; the streaming
        :class:`repro.streaming.DriftMonitor` thresholds this to decide which
        domain degraded.  An undefined rate contributes nothing, as in
        ``total``.
        """
        if domain not in self.fnr_per_domain:
            raise KeyError(f"unknown domain '{domain}'; report covers "
                           f"{list(self.fnr_per_domain)}")
        deviation = 0.0
        if domain not in self.fnr_undefined:
            deviation += abs(self.fnr_per_domain[domain] - self.fnr_overall)
        if domain not in self.fpr_undefined:
            deviation += abs(self.fpr_per_domain[domain] - self.fpr_overall)
        return deviation


def domain_bias_report(y_true: np.ndarray, y_pred: np.ndarray, domains: np.ndarray,
                       domain_names: list[str]) -> DomainBiasReport:
    """Compute FNR/FPR per domain and the FNED/FPED equality differences."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    domains = np.asarray(domains)
    if not (y_true.shape == y_pred.shape == domains.shape):
        raise ValueError("y_true, y_pred and domains must have identical shapes")

    fnr_overall = false_negative_rate(y_true, y_pred)
    fpr_overall = false_positive_rate(y_true, y_pred)
    # Per-domain counts in one pass each; a rate is count / count, the same
    # division ``false_*_rate`` performs on the domain's rows.
    count = len(domain_names)
    fake = y_true == FAKE_LABEL
    called_fake = y_pred == FAKE_LABEL
    known = (domains >= 0) & (domains < count)

    def per_domain(rows: np.ndarray) -> np.ndarray:
        return np.bincount(domains[rows & known].astype(np.int64), minlength=count)

    fakes, reals = per_domain(fake), per_domain(~fake)
    missed, false_alarms = per_domain(fake & ~called_fake), per_domain(~fake & called_fake)
    fnr_per_domain: dict[str, float] = {}
    fpr_per_domain: dict[str, float] = {}
    fnr_undefined: list[str] = []
    fpr_undefined: list[str] = []
    fned = 0.0
    fped = 0.0
    for index, name in enumerate(domain_names):
        if fakes[index]:
            fnr_per_domain[name] = float(missed[index] / fakes[index])
            fned += abs(fnr_overall - fnr_per_domain[name])
        else:
            fnr_per_domain[name] = 0.0
            fnr_undefined.append(name)
        if reals[index]:
            fpr_per_domain[name] = float(false_alarms[index] / reals[index])
            fped += abs(fpr_overall - fpr_per_domain[name])
        else:
            fpr_per_domain[name] = 0.0
            fpr_undefined.append(name)
    return DomainBiasReport(
        domain_names=list(domain_names),
        fnr_overall=fnr_overall,
        fpr_overall=fpr_overall,
        fnr_per_domain=fnr_per_domain,
        fpr_per_domain=fpr_per_domain,
        fned=fned,
        fped=fped,
        fnr_undefined=fnr_undefined,
        fpr_undefined=fpr_undefined,
    )


def fned(y_true: np.ndarray, y_pred: np.ndarray, domains: np.ndarray,
         num_domains: int) -> float:
    """False-negative equality difference (Eq. 17)."""
    names = [str(i) for i in range(num_domains)]
    return domain_bias_report(y_true, y_pred, domains, names).fned


def fped(y_true: np.ndarray, y_pred: np.ndarray, domains: np.ndarray,
         num_domains: int) -> float:
    """False-positive equality difference (Eq. 16)."""
    names = [str(i) for i in range(num_domains)]
    return domain_bias_report(y_true, y_pred, domains, names).fped


def rolling_domain_bias(y_true: np.ndarray, y_pred: np.ndarray, domains: np.ndarray,
                        domain_names: list[str], window: int) -> DomainBiasReport:
    """Windowed :func:`domain_bias_report` over the trailing ``window`` rows.

    The inputs are full event histories in arrival order; only the most recent
    ``window`` events contribute, which is what an online monitor wants — old
    traffic must stop influencing the bias signal once the stream moves on.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    domains = np.asarray(domains)
    if not (y_true.shape == y_pred.shape == domains.shape):
        raise ValueError("y_true, y_pred and domains must have identical shapes")
    start = max(0, y_true.shape[0] - window)
    return domain_bias_report(y_true[start:], y_pred[start:], domains[start:],
                              domain_names)


__all__ = [
    "false_positive_rate", "false_negative_rate",
    "DomainBiasReport", "domain_bias_report", "rolling_domain_bias",
    "fned", "fped",
    "REAL_LABEL", "FAKE_LABEL",
]
