"""Shared utilities: seeding and batching."""

import numpy as np
import pytest

from repro.utils import batched_indices, seeded_rng, spawn_rngs


class TestRngHelpers:
    def test_seeded_rng_reproducible(self):
        assert seeded_rng(3).random() == seeded_rng(3).random()

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 4)
        assert len(rngs) == 4
        values = [rng.random() for rng in rngs]
        assert len(set(values)) == 4

    def test_spawn_rngs_deterministic(self):
        a = [rng.random() for rng in spawn_rngs(7, 3)]
        b = [rng.random() for rng in spawn_rngs(7, 3)]
        assert a == b


class TestBatchedIndices:
    def test_covers_all_indices(self):
        batches = list(batched_indices(10, 3, shuffle=False))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(10))

    def test_drop_last(self):
        batches = list(batched_indices(10, 3, shuffle=False, drop_last=True))
        assert [len(b) for b in batches] == [3, 3, 3]

    def test_shuffle_permutes(self):
        batches = list(batched_indices(20, 5, rng=np.random.default_rng(0), shuffle=True))
        flattened = np.concatenate(batches)
        assert not np.array_equal(flattened, np.arange(20))
        np.testing.assert_array_equal(np.sort(flattened), np.arange(20))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batched_indices(5, 0))
