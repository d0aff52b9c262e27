"""Binary classification metrics (accuracy, precision, recall, F1)."""

from __future__ import annotations

import numpy as np


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.ndim != 1:
        raise ValueError("labels must be 1-D")
    return y_true, y_pred


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _validate(y_true, y_pred)
    if y_true.size == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def precision_recall_f1(y_true: np.ndarray, y_pred: np.ndarray,
                        positive_class: int = 1) -> tuple[float, float, float]:
    """Precision, recall and F1 for ``positive_class``."""
    y_true, y_pred = _validate(y_true, y_pred)
    true_positive = int(((y_pred == positive_class) & (y_true == positive_class)).sum())
    false_positive = int(((y_pred == positive_class) & (y_true != positive_class)).sum())
    false_negative = int(((y_pred != positive_class) & (y_true == positive_class)).sum())
    precision = true_positive / (true_positive + false_positive) if (true_positive + false_positive) else 0.0
    recall = true_positive / (true_positive + false_negative) if (true_positive + false_negative) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


def f1_score(y_true: np.ndarray, y_pred: np.ndarray, positive_class: int = 1) -> float:
    """Binary F1 for ``positive_class``."""
    return precision_recall_f1(y_true, y_pred, positive_class=positive_class)[2]


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int = 2) -> float:
    """Unweighted mean of the per-class F1 scores (the paper's F1 metric)."""
    y_true, y_pred = _validate(y_true, y_pred)
    if y_true.size == 0:
        return 0.0
    scores = []
    for cls in range(num_classes):
        if np.any(y_true == cls) or np.any(y_pred == cls):
            scores.append(f1_score(y_true, y_pred, positive_class=cls))
    return float(np.mean(scores)) if scores else 0.0
