"""Loss modules, the Adam optimiser, gradient clipping and checkpoints."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CrossEntropyLoss,
    GradientClipper,
    Linear,
    load_checkpoint,
    save_checkpoint,
)
from repro.tensor import Tensor, default_dtype
from repro.utils import seeded_rng


class TestLossModules:
    def test_cross_entropy_module(self):
        loss = CrossEntropyLoss()
        logits = Tensor(np.array([[3.0, -3.0], [-3.0, 3.0]]))
        assert loss(logits, np.array([0, 1])).item() < 0.01

    def test_cross_entropy_class_weights_change_value(self):
        logits = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        targets = np.array([1, 0])
        unweighted = CrossEntropyLoss()(logits, targets).item()
        weighted = CrossEntropyLoss(class_weights=np.array([1.0, 10.0]))(logits, targets).item()
        assert unweighted == pytest.approx(weighted, rel=0.3) or unweighted != weighted


def _quadratic_problem():
    """Parameters that should converge to the target under any sane optimiser."""
    target = np.array([1.0, -2.0, 3.0])
    parameter = Tensor(np.zeros(3), requires_grad=True)

    def loss_fn():
        diff = parameter - Tensor(target)
        return (diff * diff).sum()

    return parameter, target, loss_fn


class TestOptimisers:
    def test_adam_converges(self):
        parameter, target, loss_fn = _quadratic_problem()
        optimizer = Adam([parameter], lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.numpy(), target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Tensor(np.full(4, 5.0), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        for _ in range(50):
            optimizer.zero_grad()
            (parameter * 0.0).sum().backward()
            optimizer.step()
        assert np.abs(parameter.numpy()).max() < 1.0

    def test_skips_parameters_without_grad(self):
        parameter = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()  # no backward happened; should not raise
        np.testing.assert_allclose(parameter.numpy(), 1.0)

    def test_requires_trainable_parameters(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(2))], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(2), requires_grad=True)], lr=0.0)

    def test_frozen_parameters_excluded(self):
        trainable = Tensor(np.ones(2), requires_grad=True)
        frozen = Tensor(np.ones(2), requires_grad=False)
        optimizer = Adam([trainable, frozen], lr=0.1)
        assert len(optimizer.parameters) == 1


def _reference_adam(parameters, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """Per-tensor Adam: the loop the flat-buffer update must reproduce bit for bit."""
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in parameters]
    count = [0]

    def step():
        count[0] += 1
        bias1 = 1.0 - betas[0] ** count[0]
        bias2 = 1.0 - betas[1] ** count[0]
        for parameter, (m, v) in zip(parameters, moments):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if weight_decay:
                grad = grad + weight_decay * parameter.data
            m *= betas[0]
            m += (1.0 - betas[0]) * grad
            v *= betas[1]
            v += (1.0 - betas[1]) * grad * grad
            denom = np.sqrt(v / bias2)
            denom += eps
            denom /= lr / bias1
            parameter.data -= m / denom

    return step, moments


class TestFlatAdam:
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("weight_decay", (0.0, 0.01))
    def test_bit_identical_to_per_tensor_reference(self, dtype, weight_decay):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (4,), (2, 3, 2), ()]

        with default_dtype(dtype):
            flat_params = [Tensor(rng.standard_normal(shape), requires_grad=True)
                           for shape in shapes]
            reference_params = [Tensor(p.data.copy(), requires_grad=True)
                                 for p in flat_params]
        optimizer = Adam(flat_params, lr=0.01, weight_decay=weight_decay)
        reference_step, reference_moments = _reference_adam(
            reference_params, lr=0.01, weight_decay=weight_decay)
        for step in range(50):
            for flat, reference in zip(flat_params, reference_params):
                grad = rng.standard_normal(flat.data.shape).astype(dtype)
                flat.grad, reference.grad = grad, grad.copy()
            if step % 3 == 1:  # the third parameter sits this step out
                flat_params[2].grad = reference_params[2].grad = None
            optimizer.step()
            reference_step()
            for index, (flat, reference) in enumerate(zip(flat_params, reference_params)):
                assert flat.data.dtype == dtype
                assert flat.data.tobytes() == reference.data.tobytes()
                m, v = reference_moments[index]
                assert optimizer._m[index].tobytes() == m.tobytes()
                assert optimizer._v[index].tobytes() == v.tobytes()

    def test_moments_are_views_of_the_flat_buffers_after_unpack(self):
        from repro.core.snapshot import pack_adam_state, unpack_adam_state

        def make():
            return [Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
                    Tensor(np.ones(4), requires_grad=True)]

        source, target = make(), make()
        optimizer = Adam(source, lr=0.1)
        for _ in range(3):
            for parameter in source:
                parameter.grad = np.full(parameter.data.shape, 0.5)
            optimizer.step()
        meta, arrays = {}, {}
        pack_adam_state(optimizer, meta, arrays)
        restored = Adam(target, lr=0.1)
        unpack_adam_state(restored, meta, arrays)
        assert restored._step_count == 3
        for index in range(2):
            assert np.shares_memory(restored._m[index], restored._m_flat)
            assert np.shares_memory(restored._v[index], restored._v_flat)
            np.testing.assert_array_equal(restored._m[index], optimizer._m[index])
            np.testing.assert_array_equal(restored._v[index], optimizer._v[index])
        np.testing.assert_array_equal(restored._m_flat, optimizer._m_flat)
        np.testing.assert_array_equal(restored._v_flat, optimizer._v_flat)


class TestClipperAndScheduler:
    def test_clipper_limits_norm(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.full(4, 10.0)
        clipper = GradientClipper(max_norm=1.0)
        clipper.clip([parameter])
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_clipper_leaves_small_gradients(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.full(4, 0.01)
        GradientClipper(max_norm=5.0).clip([parameter])
        np.testing.assert_allclose(parameter.grad, 0.01)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_clipper_refuses_non_finite_norm(self, bad):
        finite = Tensor(np.zeros(3), requires_grad=True)
        finite.grad = np.full(3, 10.0)
        broken = Tensor(np.zeros(2), requires_grad=True)
        broken.grad = np.array([1.0, bad])
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            GradientClipper(max_norm=1.0).clip([finite, broken])
        np.testing.assert_array_equal(finite.grad, 10.0)

    def test_clipper_invalid_norm(self):
        with pytest.raises(ValueError):
            GradientClipper(max_norm=0.0)


class TestCheckpoints:
    def test_save_and_load_roundtrip(self, tmp_path):
        source = Linear(4, 3, rng=seeded_rng(0))
        target = Linear(4, 3, rng=seeded_rng(99))
        path = tmp_path / "weights.bin"
        save_checkpoint(source, path)
        load_checkpoint(target, path)
        np.testing.assert_allclose(source.weight.numpy(), target.weight.numpy())
        np.testing.assert_allclose(source.bias.numpy(), target.bias.numpy())

    def test_load_strict_mismatch(self, tmp_path):
        source = Linear(4, 3, rng=seeded_rng(0))
        path = tmp_path / "weights.bin"
        save_checkpoint(source, path)
        other = Linear(4, 4, rng=seeded_rng(1))
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(other, path)
