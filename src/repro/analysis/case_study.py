"""Case study (Figure 3): prediction probabilities on probe news items.

The paper shows three news pieces — real entertainment news, real politics
news and real disaster news — and compares the probability of the correct
label under M3FEND, MDFEND and DTDBD, arguing that DTDBD is both more often
correct and more confident on items from prior-skewed domains.

:func:`run_case_study` feeds the probe items produced by
:func:`repro.data.make_case_study_probes` (ambiguous real items from skewed
domains, the same failure mode as the paper's examples) through any set of
trained models and tabulates the probability each model assigns to the true
label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import MultiDomainNewsDataset
from repro.data.loader import DataLoader
from repro.data.synthetic import CaseStudyItem
from repro.data.vocab import Vocabulary
from repro.models.base import FakeNewsDetector


@dataclass
class CasePrediction:
    """One model's verdict on one probe item."""

    model: str
    probability_true_label: float
    predicted_label: int
    correct: bool


@dataclass
class CaseStudyRow:
    """All models' verdicts on one probe item."""

    description: str
    domain: str
    true_label: int
    expected_bias: str
    predictions: list[CasePrediction] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "domain": self.domain,
            "true_label": self.true_label,
            "expected_bias": self.expected_bias,
            "predictions": {
                p.model: {"p_true": p.probability_true_label,
                          "prediction": p.predicted_label,
                          "correct": p.correct}
                for p in self.predictions
            },
        }


def run_case_study(probes: list[CaseStudyItem], models: dict[str, FakeNewsDetector],
                   vocab: Vocabulary, domain_names: list[str], max_length: int = 24,
                   channels=None) -> list[CaseStudyRow]:
    """Evaluate every model on every probe item and collect the probabilities."""
    dataset = MultiDomainNewsDataset([probe.item for probe in probes], domain_names,
                                     name="case-study")
    loader = DataLoader(dataset, vocab, max_length=max_length, batch_size=len(probes),
                        shuffle=False, channels=channels)
    batch = loader.full_batch()
    rows: list[CaseStudyRow] = []
    for index, probe in enumerate(probes):
        rows.append(CaseStudyRow(
            description=probe.description,
            domain=probe.item.domain_name,
            true_label=probe.item.label,
            expected_bias=probe.expected_bias,
        ))
    for name, model in models.items():
        probabilities = model.predict_proba(batch)
        predictions = probabilities.argmax(axis=1)
        for index, probe in enumerate(probes):
            true_label = probe.item.label
            rows[index].predictions.append(CasePrediction(
                model=name,
                probability_true_label=float(probabilities[index, true_label]),
                predicted_label=int(predictions[index]),
                correct=bool(predictions[index] == true_label),
            ))
    return rows


def case_study_summary(rows: list[CaseStudyRow]) -> dict[str, dict[str, float]]:
    """Per-model aggregate: how many probes correct, mean confidence on the truth."""
    summary: dict[str, dict[str, float]] = {}
    for row in rows:
        for prediction in row.predictions:
            entry = summary.setdefault(prediction.model,
                                       {"correct": 0.0, "confidence_sum": 0.0, "count": 0.0})
            entry["correct"] += 1.0 if prediction.correct else 0.0
            entry["confidence_sum"] += prediction.probability_true_label
            entry["count"] += 1.0
    return {
        model: {
            "accuracy": entry["correct"] / entry["count"],
            "mean_confidence_true_label": entry["confidence_sum"] / entry["count"],
        }
        for model, entry in summary.items()
    }
