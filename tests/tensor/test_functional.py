"""Semantics of the functional API (values, invariants, error handling)."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((6, 7)) * 10)
        probs = F.softmax(x, axis=-1).numpy()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_invariant_to_shift(self):
        x = np.random.default_rng(1).standard_normal((3, 4))
        a = F.softmax(Tensor(x)).numpy()
        b = F.softmax(Tensor(x + 100.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(2).standard_normal((4, 5)))
        np.testing.assert_allclose(F.log_softmax(x).numpy(),
                                   np.log(F.softmax(x).numpy()), atol=1e-10)

    def test_softmax_handles_extreme_values(self):
        x = Tensor(np.array([[1000.0, -1000.0], [0.0, 0.0]]))
        probs = F.softmax(x).numpy()
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[0], [1.0, 0.0], atol=1e-12)


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        assert F.cross_entropy(logits, np.array([0, 1])).item() < 1e-4

    def test_cross_entropy_uniform_is_log_k(self):
        logits = Tensor(np.zeros((5, 4)))
        assert F.cross_entropy(logits, np.array([0, 1, 2, 3, 0])).item() == pytest.approx(np.log(4))

    def test_nll_matches_cross_entropy(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((6, 3)))
        targets = np.array([0, 1, 2, 0, 1, 2])
        ce = F.cross_entropy(logits, targets).item()
        nll = F.nll_loss(F.log_softmax(logits), targets).item()
        assert ce == pytest.approx(nll)

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([0, 3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([[0, 1]]), 3)


class TestDistillation:
    def test_kl_zero_for_identical_distributions(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        assert F.distillation_kl(logits, logits.copy(), temperature=2.0).item() == pytest.approx(0.0, abs=1e-10)

    def test_kl_positive_for_different_distributions(self):
        a = Tensor(np.array([[5.0, 0.0, 0.0]]))
        b = Tensor(np.array([[0.0, 5.0, 0.0]]))
        assert F.distillation_kl(a, b).item() > 0.5

    def test_temperature_scaling_changes_value(self):
        rng = np.random.default_rng(1)
        a, b = Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal((5, 4)))
        low = F.distillation_kl(a, b, temperature=1.0).item()
        high = F.distillation_kl(a, b, temperature=8.0).item()
        assert low != pytest.approx(high)

    def test_invalid_temperature(self):
        a = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            F.distillation_kl(a, a, temperature=0.0)

    def test_teacher_gradient_is_blocked(self):
        student = Tensor(np.random.default_rng(0).standard_normal((3, 2)), requires_grad=True)
        teacher = Tensor(np.random.default_rng(1).standard_normal((3, 2)), requires_grad=True)
        F.distillation_kl(student, teacher).backward()
        assert student.grad is not None
        assert teacher.grad is None


class TestStructuredHelpers:
    def test_pairwise_distances_properties(self):
        x = np.random.default_rng(0).standard_normal((7, 5))
        m = F.pairwise_squared_distances(Tensor(x)).numpy()
        assert m.shape == (7, 7)
        np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-9)
        np.testing.assert_allclose(m, m.T, atol=1e-9)
        expected = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(m, expected, atol=1e-8)

    def test_pairwise_distances_requires_matrix(self):
        with pytest.raises(ValueError):
            F.pairwise_squared_distances(Tensor(np.zeros((2, 3, 4))))

    def test_entropy_uniform_is_maximal(self):
        uniform = Tensor(np.full((1, 4), 0.25))
        peaked = Tensor(np.array([[0.97, 0.01, 0.01, 0.01]]))
        assert F.entropy(uniform).item() > F.entropy(peaked).item()

    def test_information_entropy_loss_sign(self):
        # Minimising the loss should push towards uniform predictions, so the
        # uniform distribution must have the smaller (more negative) loss.
        uniform = Tensor(np.full((2, 4), 0.25))
        peaked = Tensor(np.array([[0.97, 0.01, 0.01, 0.01], [0.01, 0.97, 0.01, 0.01]]))
        assert F.information_entropy_loss(uniform).item() < F.information_entropy_loss(peaked).item()

    def test_normalize_unit_norm(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6)) * 5)
        norms = np.linalg.norm(F.normalize(x).numpy(), axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_masked_mean_ignores_padding(self):
        x = np.zeros((1, 3, 2))
        x[0, 0] = [2.0, 4.0]
        x[0, 1] = [4.0, 8.0]
        x[0, 2] = [100.0, 100.0]  # padded position
        mask = np.array([[1.0, 1.0, 0.0]])
        result = F.masked_mean(Tensor(x), mask, axis=1).numpy()
        np.testing.assert_allclose(result, [[3.0, 6.0]])

    def test_masked_mean_empty_row_is_safe(self):
        x = np.ones((1, 3, 2))
        mask = np.zeros((1, 3))
        result = F.masked_mean(Tensor(x), mask, axis=1).numpy()
        assert np.isfinite(result).all()

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(6, 2))
        out = F.embedding(table, np.array([[0, 5], [2, 2]]))
        np.testing.assert_allclose(out.numpy(), [[[0, 1], [10, 11]], [[4, 5], [4, 5]]])
