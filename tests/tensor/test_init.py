"""Weight-initialisation schemes."""

import numpy as np
import pytest

from repro.tensor import init


class TestInitialisers:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((100, 50), rng=rng)
        limit = np.sqrt(6.0 / 150)
        assert w.requires_grad
        assert w.numpy().max() <= limit and w.numpy().min() >= -limit

    def test_normal_std(self):
        rng = np.random.default_rng(0)
        w = init.normal((50, 50), std=0.3, rng=rng)
        assert abs(w.numpy().std() - 0.3) < 0.05

    def test_zeros_ones(self):
        assert np.all(init.zeros((3, 3)).numpy() == 0.0)
        assert np.all(init.ones((3,)).numpy() == 1.0)

    def test_reproducible_with_same_rng_seed(self):
        a = init.xavier_uniform((10, 10), rng=np.random.default_rng(5))
        b = init.xavier_uniform((10, 10), rng=np.random.default_rng(5))
        np.testing.assert_allclose(a.numpy(), b.numpy())

    def test_fans_for_conv_like_shapes(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((8, 4, 3), rng=rng)
        assert w.shape == (8, 4, 3)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), rng=np.random.default_rng(0))

    def test_1d_shape(self):
        w = init.xavier_uniform((16,), rng=np.random.default_rng(0))
        assert w.shape == (16,)
