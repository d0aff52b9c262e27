"""Numerical-gradient checks for every backward rule used by the models."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F

RNG = np.random.default_rng(42)


def numerical_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        upper = fn()
        array[index] = original - eps
        lower = fn()
        array[index] = original
        grad[index] = (upper - lower) / (2 * eps)
        iterator.iternext()
    return grad


def check(build_loss, *arrays, atol=1e-6):
    """Compare autograd gradients with numerical gradients for every input array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for tensor in tensors:
        def closure(t=tensor):
            fixed = [Tensor(other.data) if other is not t else Tensor(t.data)
                     for other in tensors]
            return build_loss(*fixed).item()

        numeric = numerical_gradient(closure, tensor.data)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_mul_broadcast(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4,))
        check(lambda x, y: ((x + y) * (x * 0.5 + 2.0)).sum(), a, b)

    def test_sub_div(self):
        a = RNG.standard_normal((2, 3)) + 3.0
        b = RNG.standard_normal((2, 3)) + 3.0
        check(lambda x, y: ((x - y) / y).sum(), a, b)

    def test_pow_sqrt(self):
        a = np.abs(RNG.standard_normal((5,))) + 0.5
        check(lambda x: (x ** 3 + x.sqrt()).sum(), a)

    def test_matmul(self):
        a = RNG.standard_normal((4, 3))
        b = RNG.standard_normal((3, 5))
        check(lambda x, y: (x @ y).sum(), a, b)

    def test_matmul_batched(self):
        a = RNG.standard_normal((2, 3, 4))
        b = RNG.standard_normal((2, 4, 2))
        check(lambda x, y: ((x @ y) ** 2).sum(), a, b)

    def test_matvec(self):
        a = RNG.standard_normal((4, 3))
        v = RNG.standard_normal((3,))
        check(lambda x, y: (x @ y).sum(), a, v)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = RNG.standard_normal((3, 4, 2))
        check(lambda x: (x.sum(axis=1, keepdims=True) * 2.0).sum(), a)

    def test_mean(self):
        a = RNG.standard_normal((4, 5))
        check(lambda x: (x.mean(axis=0) ** 2).sum(), a)

    def test_max_global_and_axis(self):
        a = RNG.standard_normal((3, 6))
        check(lambda x: x.max(), a)
        check(lambda x: x.max(axis=1).sum(), a)

    def test_min(self):
        a = RNG.standard_normal((3, 6))
        check(lambda x: x.min(axis=0).sum(), a)


class TestElementwise:
    def test_exp_log(self):
        a = np.abs(RNG.standard_normal((4, 4))) + 0.2
        check(lambda x: (x.exp() + x.log()).sum(), a)

    def test_tanh_sigmoid_relu(self):
        a = RNG.standard_normal((3, 5))
        check(lambda x: (x.tanh() * x.sigmoid() + x.relu()).sum(), a, atol=1e-5)

    def test_abs_clip(self):
        a = RNG.standard_normal((4, 4)) * 2.0
        check(lambda x: (x.abs() + x.clip(-0.5, 0.5)).sum(), a, atol=1e-5)


class TestShapeOps:
    def test_reshape_transpose(self):
        a = RNG.standard_normal((2, 3, 4))
        check(lambda x: (x.reshape(6, 4).transpose(1, 0) ** 2).sum(), a)

    def test_getitem_slice(self):
        a = RNG.standard_normal((4, 6))
        check(lambda x: (x[:, 1:4] ** 2).sum(), a)

    def test_getitem_integer_array(self):
        a = RNG.standard_normal((5, 3))
        idx = np.array([0, 2, 2, 4])
        check(lambda x: (x[idx] ** 2).sum(), a)

    def test_cat_stack(self):
        a = RNG.standard_normal((2, 3))
        b = RNG.standard_normal((2, 3))
        check(lambda x, y: (Tensor.cat([x, y], axis=1) ** 2).sum(), a, b)
        check(lambda x, y: (Tensor.stack([x, y], axis=0) ** 3).sum(), a, b)

    def test_where(self):
        a = RNG.standard_normal((3, 3))
        b = RNG.standard_normal((3, 3))
        cond = RNG.random((3, 3)) > 0.5
        check(lambda x, y: (Tensor.where(cond, x, y) ** 2).sum(), a, b)


class TestFunctional:
    def test_softmax_log_softmax(self):
        a = RNG.standard_normal((4, 5))
        check(lambda x: (F.softmax(x, axis=-1) * np.arange(5.0)).sum(), a)
        check(lambda x: (F.log_softmax(x, axis=-1) ** 2).sum(), a)

    def test_cross_entropy(self):
        logits = RNG.standard_normal((6, 3))
        targets = np.array([0, 1, 2, 1, 0, 2])
        check(lambda x: F.cross_entropy(x, targets), logits)

    def test_weighted_cross_entropy(self):
        logits = RNG.standard_normal((4, 2))
        targets = np.array([0, 1, 1, 0])
        weights = np.array([0.5, 2.0, 1.0, 1.5])
        check(lambda x: F.cross_entropy(x, targets, weights=weights), logits)

    def test_distillation_kl(self):
        student = RNG.standard_normal((5, 4))
        teacher = RNG.standard_normal((5, 4))
        check(lambda x: F.distillation_kl(x, Tensor(teacher), temperature=3.0), student)

    def test_pairwise_squared_distances(self):
        a = RNG.standard_normal((6, 4))
        check(lambda x: (F.pairwise_squared_distances(x) ** 2).sum() * 1e-2, a, atol=1e-4)

    def test_information_entropy_loss(self):
        logits = RNG.standard_normal((5, 4))
        check(lambda x: F.information_entropy_loss(F.softmax(x, axis=-1)), logits)

    def test_normalize_and_masked_mean(self):
        a = RNG.standard_normal((3, 5, 4))
        mask = (RNG.random((3, 5)) > 0.3).astype(float)
        mask[:, 0] = 1.0
        check(lambda x: (F.normalize(F.masked_mean(x, mask), axis=-1) ** 2).sum(), a, atol=1e-5)

    def test_gelu(self):
        a = RNG.standard_normal((4, 4))
        check(lambda x: F.gelu(x).sum(), a, atol=1e-5)

    def test_embedding(self):
        table = RNG.standard_normal((10, 4))
        idx = np.array([[1, 2, 3], [3, 3, 9]])
        check(lambda w: (F.embedding(w, idx) ** 2).sum(), table)


class TestGradientAccumulation:
    def test_reused_tensor_accumulates(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        loss = (a * a).sum() + (3.0 * a).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 3.0)

    def test_two_backward_calls_accumulate(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a * 2).sum().backward()
        first = a.grad.copy()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_zero_grad(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 5).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestDropoutBehaviour:
    def test_dropout_eval_is_identity(self):
        x = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.numpy(), x.numpy())

    def test_dropout_train_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.numpy()[out.numpy() > 0]
        assert np.allclose(kept, 2.0)
        assert 0.35 < (out.numpy() > 0).mean() < 0.65

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)
