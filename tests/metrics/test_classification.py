"""Classification metrics against hand-computed values."""

import numpy as np
import pytest

from repro.metrics import accuracy, f1_score, macro_f1, precision_recall_f1


class TestAccuracy:
    def test_value(self):
        assert accuracy(np.array([1, 0, 1, 1]), np.array([1, 1, 1, 0])) == pytest.approx(0.5)

    def test_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))


class TestF1:
    def test_known_value(self):
        y_true = np.array([1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0, 0])
        precision, recall, f1 = precision_recall_f1(y_true, y_pred)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_perfect_and_zero(self):
        y = np.array([0, 1, 0, 1])
        assert f1_score(y, y) == 1.0
        assert f1_score(y, 1 - y) == 0.0

    def test_no_positive_predictions(self):
        y_true = np.array([1, 1, 0])
        y_pred = np.array([0, 0, 0])
        precision, recall, f1 = precision_recall_f1(y_true, y_pred)
        assert precision == 0.0 and recall == 0.0 and f1 == 0.0

    def test_macro_f1_is_mean_of_class_f1(self):
        y_true = np.array([1, 1, 1, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0, 0])
        per_class = [f1_score(y_true, y_pred, positive_class=c) for c in (0, 1)]
        assert macro_f1(y_true, y_pred) == pytest.approx(np.mean(per_class))

    def test_macro_f1_single_class_present(self):
        y_true = np.array([1, 1, 1])
        y_pred = np.array([1, 1, 1])
        assert macro_f1(y_true, y_pred) == 1.0

    def test_macro_f1_empty(self):
        assert macro_f1(np.array([]), np.array([])) == 0.0

    def test_macro_f1_symmetry_under_label_swap(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 2, 50)
        y_pred = rng.integers(0, 2, 50)
        assert macro_f1(y_true, y_pred) == pytest.approx(macro_f1(1 - y_true, 1 - y_pred))
