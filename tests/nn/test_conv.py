"""Conv1d, pooling layers and the TextCNN encoder."""

import numpy as np
import pytest

from repro.nn import Conv1d, GlobalMaxPool1d, TextCNNEncoder
from repro.tensor import Tensor, fused_kernels
from repro.utils import seeded_rng


class TestConv1d:
    def test_output_shape(self):
        conv = Conv1d(8, 16, kernel_size=3, rng=seeded_rng(0))
        out = conv(Tensor(np.random.default_rng(0).standard_normal((4, 10, 8))))
        assert out.shape == (4, 8, 16)

    def test_kernel_one_equals_linear(self):
        conv = Conv1d(5, 7, kernel_size=1, rng=seeded_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 6, 5))
        out = conv(Tensor(x)).numpy()
        manual = x @ conv.weight.numpy() + conv.bias.numpy()
        np.testing.assert_allclose(out, manual)

    def test_matches_manual_convolution(self):
        conv = Conv1d(2, 1, kernel_size=2, rng=seeded_rng(0))
        x = np.arange(12.0).reshape(1, 6, 2)
        out = conv(Tensor(x)).numpy()[0, :, 0]
        w = conv.weight.numpy()[:, 0]
        expected = [np.concatenate([x[0, i], x[0, i + 1]]) @ w + conv.bias.numpy()[0]
                    for i in range(5)]
        np.testing.assert_allclose(out, expected)

    def test_channel_mismatch_raises(self):
        conv = Conv1d(4, 2, kernel_size=2, rng=seeded_rng(0))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 5, 3))))

    def test_sequence_shorter_than_kernel_raises(self):
        conv = Conv1d(4, 2, kernel_size=6, rng=seeded_rng(0))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 5, 4))))

    def test_invalid_kernel_size(self):
        with pytest.raises(ValueError):
            Conv1d(4, 2, kernel_size=0)

    def test_gradients(self):
        conv = Conv1d(3, 4, kernel_size=2, rng=seeded_rng(0))
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 3)), requires_grad=True)
        conv(x).sum().backward()
        assert conv.weight.grad is not None
        assert x.grad is not None and x.grad.shape == x.shape


class TestPooling:
    def test_max_pool(self):
        x = np.random.default_rng(0).standard_normal((3, 7, 4))
        out = GlobalMaxPool1d()(Tensor(x)).numpy()
        np.testing.assert_allclose(out, x.max(axis=1))


class TestTextCNNEncoder:
    def test_output_dim_property(self):
        encoder = TextCNNEncoder(16, kernel_sizes=(1, 2, 3), channels=8, rng=seeded_rng(0))
        assert encoder.output_dim == 24

    def test_forward_shape(self):
        encoder = TextCNNEncoder(16, kernel_sizes=(1, 2, 3, 5), channels=8, rng=seeded_rng(0))
        out = encoder(Tensor(np.random.default_rng(0).standard_normal((6, 12, 16))))
        assert out.shape == (6, 32)

    def test_output_nonnegative_after_relu_maxpool(self):
        encoder = TextCNNEncoder(8, kernel_sizes=(2,), channels=4, rng=seeded_rng(0))
        out = encoder(Tensor(np.random.default_rng(1).standard_normal((3, 9, 8))))
        assert (out.numpy() >= 0).all()

    def test_gradients_reach_all_kernels(self):
        encoder = TextCNNEncoder(8, kernel_sizes=(1, 3), channels=4, rng=seeded_rng(0))
        encoder(Tensor(np.random.default_rng(0).standard_normal((2, 6, 8)))).sum().backward()
        for conv in encoder.convolutions:
            assert conv.weight.grad is not None

    @pytest.mark.parametrize("fused_on", (True, False))
    def test_channel_mismatch_raises(self, fused_on):
        encoder = TextCNNEncoder(8, kernel_sizes=(1, 3), channels=4, rng=seeded_rng(0))
        with fused_kernels(fused_on), pytest.raises(
                ValueError, match="expected 8 input channels, got 6"):
            encoder(Tensor(np.zeros((2, 6, 6))))

    @pytest.mark.parametrize("fused_on", (True, False))
    def test_kernel_longer_than_sequence_raises(self, fused_on):
        encoder = TextCNNEncoder(8, kernel_sizes=(1, 5), channels=4, rng=seeded_rng(0))
        with fused_kernels(fused_on), pytest.raises(
                ValueError, match="sequence length 4 shorter than kernel size 5"):
            encoder(Tensor(np.zeros((2, 4, 8))))
