"""Performance and domain-bias metrics."""

from repro.metrics.classification import (
    accuracy,
    f1_score,
    macro_f1,
    precision_recall_f1,
)
from repro.metrics.fairness import (
    DomainBiasReport,
    domain_bias_report,
    false_negative_rate,
    false_positive_rate,
    fned,
    fped,
    rolling_domain_bias,
)
from repro.metrics.report import EvaluationReport, evaluate_predictions

__all__ = [
    "accuracy", "f1_score", "macro_f1", "precision_recall_f1",
    "false_negative_rate", "false_positive_rate",
    "DomainBiasReport", "domain_bias_report", "rolling_domain_bias",
    "fned", "fped",
    "EvaluationReport", "evaluate_predictions",
]
