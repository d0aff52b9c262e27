"""Forward-pass correctness of the Tensor operations against NumPy."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_integer_input_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.floating)

    def test_zeros_ones_full(self):
        assert np.all(Tensor.zeros(2, 3).numpy() == 0.0)
        assert np.all(Tensor.ones(4).numpy() == 1.0)
        assert np.all(Tensor.full((2, 2), 7.5).numpy() == 7.5)

    def test_item_and_len(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_detach_shares_data_but_not_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.numpy() is t.numpy()


class TestArithmetic:
    def setup_method(self):
        self.a = np.array([[1.0, -2.0], [3.0, 0.5]])
        self.b = np.array([[2.0, 2.0], [0.5, -1.0]])

    def test_add_sub_mul_div(self):
        ta, tb = Tensor(self.a), Tensor(self.b)
        np.testing.assert_allclose((ta + tb).numpy(), self.a + self.b)
        np.testing.assert_allclose((ta - tb).numpy(), self.a - self.b)
        np.testing.assert_allclose((ta * tb).numpy(), self.a * self.b)
        np.testing.assert_allclose((ta / tb).numpy(), self.a / self.b)

    def test_scalar_operations(self):
        t = Tensor(self.a)
        np.testing.assert_allclose((t + 1.0).numpy(), self.a + 1.0)
        np.testing.assert_allclose((2.0 * t).numpy(), 2.0 * self.a)
        np.testing.assert_allclose((1.0 - t).numpy(), 1.0 - self.a)
        np.testing.assert_allclose((1.0 / Tensor(self.b)).numpy(), 1.0 / self.b)

    def test_neg_pow(self):
        t = Tensor(self.b)
        np.testing.assert_allclose((-t).numpy(), -self.b)
        np.testing.assert_allclose((t ** 2).numpy(), self.b ** 2)

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor(self.a) ** Tensor(self.b)  # type: ignore[operator]

    def test_matmul_2d(self):
        result = Tensor(self.a) @ Tensor(self.b)
        np.testing.assert_allclose(result.numpy(), self.a @ self.b)

    def test_matmul_batched(self):
        a = np.random.default_rng(0).standard_normal((4, 3, 5))
        b = np.random.default_rng(1).standard_normal((4, 5, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)

    def test_broadcasting_add(self):
        a = np.ones((3, 4))
        b = np.arange(4.0)
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).numpy(), a + b)


class TestReductionsAndShape:
    def setup_method(self):
        self.x = np.arange(24.0).reshape(2, 3, 4)

    def test_sum_axes(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t.sum().numpy(), self.x.sum())
        np.testing.assert_allclose(t.sum(axis=1).numpy(), self.x.sum(axis=1))
        np.testing.assert_allclose(t.sum(axis=2, keepdims=True).numpy(),
                                   self.x.sum(axis=2, keepdims=True))

    def test_mean_max_min(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t.mean(axis=0).numpy(), self.x.mean(axis=0))
        np.testing.assert_allclose(t.max(axis=1).numpy(), self.x.max(axis=1))
        np.testing.assert_allclose(t.min(axis=2).numpy(), self.x.min(axis=2))

    def test_reshape_transpose(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t.reshape(6, 4).numpy(), self.x.reshape(6, 4))
        np.testing.assert_allclose(t.transpose(2, 0, 1).numpy(), self.x.transpose(2, 0, 1))
        np.testing.assert_allclose(t.swapaxes(0, 1).numpy(), self.x.swapaxes(0, 1))

    def test_squeeze_unsqueeze(self):
        t = Tensor(np.ones((2, 1, 3)))
        assert t.squeeze(1).shape == (2, 3)
        assert t.unsqueeze(0).shape == (1, 2, 1, 3)
        with pytest.raises(ValueError):
            t.squeeze(0)

    def test_getitem(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t[0].numpy(), self.x[0])
        np.testing.assert_allclose(t[:, 1, :].numpy(), self.x[:, 1, :])
        indices = np.array([1, 0, 1])
        np.testing.assert_allclose(t[indices].numpy(), self.x[indices])

    def test_cat_and_stack(self):
        a, b = np.ones((2, 3)), np.zeros((2, 3))
        np.testing.assert_allclose(Tensor.cat([Tensor(a), Tensor(b)], axis=0).numpy(),
                                   np.concatenate([a, b], axis=0))
        np.testing.assert_allclose(Tensor.stack([Tensor(a), Tensor(b)], axis=1).numpy(),
                                   np.stack([a, b], axis=1))

    def test_where(self):
        cond = np.array([True, False, True])
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        np.testing.assert_allclose(Tensor.where(cond, a, b).numpy(), [1.0, 0.0, 1.0])

    def test_argmax_and_comparisons(self):
        t = Tensor(np.array([[0.2, 0.8], [0.9, 0.1]]))
        np.testing.assert_array_equal(t.argmax(axis=1), [1, 0])
        assert (t > 0.5).sum() == 2


class TestElementwise:
    def test_exp_log_sqrt_abs(self):
        x = np.array([0.5, 1.0, 2.0])
        t = Tensor(x)
        np.testing.assert_allclose(t.exp().numpy(), np.exp(x))
        np.testing.assert_allclose(t.log().numpy(), np.log(x))
        np.testing.assert_allclose(t.sqrt().numpy(), np.sqrt(x))
        np.testing.assert_allclose(Tensor(-x).abs().numpy(), x)

    def test_activations(self):
        x = np.linspace(-3, 3, 7)
        t = Tensor(x)
        np.testing.assert_allclose(t.tanh().numpy(), np.tanh(x))
        np.testing.assert_allclose(t.sigmoid().numpy(), 1 / (1 + np.exp(-x)), rtol=1e-12)
        np.testing.assert_allclose(t.relu().numpy(), np.maximum(x, 0))

    def test_clip(self):
        x = np.array([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(Tensor(x).clip(-1.0, 1.0).numpy(), [-1.0, 0.5, 1.0])


class TestGradFlags:
    def test_no_grad_context(self):
        with no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
            out = t * 2
        assert not t.requires_grad
        assert not out.requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward(np.ones(3))

    def test_backward_scalar_only_without_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_shape_check(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(4))
