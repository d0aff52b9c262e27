"""Adversarial de-biasing distillation and domain knowledge distillation losses."""

import numpy as np
import pytest

from repro.core import (
    TeacherCache,
    adversarial_debiasing_distillation_loss,
    correlation_matrix,
    domain_knowledge_distillation_loss,
    teacher_forward,
)
from repro.models import build_model
from repro.tensor import Tensor, fused_kernels


class TestCorrelationMatrix:
    def test_shape_and_symmetry(self):
        features = Tensor(np.random.default_rng(0).standard_normal((8, 5)))
        matrix = correlation_matrix(features).numpy()
        assert matrix.shape == (8, 8)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-10)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-10)

    def test_normalisation_bounds_distances(self):
        features = Tensor(np.random.default_rng(0).standard_normal((6, 4)) * 100)
        matrix = correlation_matrix(features, normalize=True).numpy()
        assert matrix.max() <= 4.0 + 1e-9

    def test_unnormalised_keeps_scale(self):
        features = Tensor(np.random.default_rng(0).standard_normal((6, 4)) * 100)
        matrix = correlation_matrix(features, normalize=False).numpy()
        assert matrix.max() > 4.0


class TestADDLoss:
    def test_zero_when_student_equals_teacher(self):
        features = Tensor(np.random.default_rng(0).standard_normal((10, 6)))
        loss = adversarial_debiasing_distillation_loss(features, features.copy())
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_positive_when_geometry_differs(self):
        rng = np.random.default_rng(0)
        student = Tensor(rng.standard_normal((10, 6)))
        teacher = Tensor(rng.standard_normal((10, 6)))
        assert adversarial_debiasing_distillation_loss(student, teacher).item() > 0

    def test_invariant_to_teacher_scale(self):
        rng = np.random.default_rng(1)
        student = Tensor(rng.standard_normal((8, 4)))
        teacher = Tensor(rng.standard_normal((8, 4)))
        loss_a = adversarial_debiasing_distillation_loss(student, teacher).item()
        loss_b = adversarial_debiasing_distillation_loss(student, teacher * 50.0).item()
        assert loss_a == pytest.approx(loss_b, rel=1e-6)

    def test_gradient_only_to_student(self):
        rng = np.random.default_rng(2)
        student = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        teacher = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        adversarial_debiasing_distillation_loss(student, teacher).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adversarial_debiasing_distillation_loss(Tensor(np.zeros((4, 3))),
                                                    Tensor(np.zeros((5, 3))))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            adversarial_debiasing_distillation_loss(Tensor(np.zeros((1, 3))),
                                                    Tensor(np.zeros((1, 3))))

    def test_fused_dispatch_matches_composed(self):
        """The single-node fused ADD kernel and the composed chain agree."""
        rng = np.random.default_rng(4)
        student_data = rng.standard_normal((10, 6))
        teacher = Tensor(rng.standard_normal((10, 6)))
        results = {}
        for fused_on in (True, False):
            with fused_kernels(fused_on):
                student = Tensor(student_data.copy(), requires_grad=True)
                loss = adversarial_debiasing_distillation_loss(
                    student, teacher, temperature=2.0)
                loss.backward()
                results[fused_on] = (loss.item(), student.grad)
        assert results[True][0] == pytest.approx(results[False][0], abs=1e-9)
        np.testing.assert_allclose(results[True][1], results[False][1], atol=1e-9)

    def test_minimising_loss_matches_teacher_geometry(self):
        """Gradient descent on ADD alone should pull the student's pairwise
        geometry towards the teacher's."""
        rng = np.random.default_rng(3)
        student = Tensor(rng.standard_normal((12, 4)), requires_grad=True)
        teacher = Tensor(rng.standard_normal((12, 4)))
        initial = adversarial_debiasing_distillation_loss(student, teacher).item()
        for _ in range(100):
            student.zero_grad()
            loss = adversarial_debiasing_distillation_loss(student, teacher)
            loss.backward()
            student.data = student.data - 1.0 * student.grad
        final = adversarial_debiasing_distillation_loss(student, teacher).item()
        assert final < initial * 0.5


class TestDKDLoss:
    def test_zero_for_identical_logits(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((7, 2)))
        assert domain_knowledge_distillation_loss(logits, logits.copy()).item() == pytest.approx(0.0, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            domain_knowledge_distillation_loss(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 3))))

    def test_temperature_softens(self):
        student = Tensor(np.array([[4.0, -4.0]]))
        teacher = Tensor(np.array([[-4.0, 4.0]]))
        hard = domain_knowledge_distillation_loss(student, teacher, temperature=1.0).item()
        # The tau^2 factor compensates the softening, so just check both finite
        soft = domain_knowledge_distillation_loss(student, teacher, temperature=10.0).item()
        assert np.isfinite(hard) and np.isfinite(soft)
        assert hard != pytest.approx(soft)


class TestTeacherForward:
    def test_returns_detached_constants(self, model_config, sample_batch):
        teacher = build_model("mdfend", model_config)
        logits, features = teacher_forward(teacher, sample_batch)
        assert not logits.requires_grad and not features.requires_grad
        assert logits.shape == (len(sample_batch), 2)

    def test_restores_training_mode(self, model_config, sample_batch):
        teacher = build_model("bert", model_config)
        teacher.train()
        teacher_forward(teacher, sample_batch)
        assert teacher.training

    def test_training_teacher_forwarded_in_eval_mode(self, model_config, sample_batch):
        """Ad-hoc callers with a train-mode teacher still get eval outputs."""
        teacher = build_model("mdfend", model_config)
        teacher.train()
        logits, _ = teacher_forward(teacher, sample_batch)
        teacher.eval()
        eval_logits, _ = teacher_forward(teacher, sample_batch)
        np.testing.assert_array_equal(logits.numpy(), eval_logits.numpy())

    def test_no_mode_flips_for_eval_teacher(self, model_config, sample_batch):
        """The frozen-and-eval steady state must not pay per-batch tree walks.

        Regression test for the old implementation, which called
        ``teacher.eval()`` (a full recursive module walk) on *every* batch
        even when the teacher had been in eval mode for the whole run.
        """
        teacher = build_model("mdfend", model_config)
        teacher.freeze()
        teacher.eval()
        calls = []
        original_train = type(teacher).train
        teacher.train = lambda mode=True: (calls.append(mode),
                                           original_train(teacher, mode))[1]
        logits, features = teacher_forward(teacher, sample_batch)
        assert calls == []
        assert not teacher.training
        assert not logits.requires_grad and not features.requires_grad


class TestTeacherCache:
    @pytest.fixture()
    def frozen_teacher(self, model_config):
        teacher = build_model("mdfend", model_config)
        teacher.freeze()
        teacher.eval()
        return teacher

    def test_refuses_unfrozen_teacher(self, model_config, train_loader):
        teacher = build_model("mdfend", model_config)
        with pytest.raises(ValueError, match="frozen"):
            TeacherCache(teacher, train_loader)

    def test_lookup_matches_live_forward(self, frozen_teacher, train_loader):
        """Gathers are bit-identical to per-batch forwards on served batches."""
        cache = TeacherCache(frozen_teacher, train_loader)
        assert not cache.materialised
        for batch in train_loader:
            logits, features = teacher_forward(frozen_teacher, batch)
            cached_logits, cached_features = cache.lookup(batch)
            if cache.serves(batch):
                np.testing.assert_array_equal(cached_logits.numpy(), logits.numpy())
                np.testing.assert_array_equal(cached_features.numpy(), features.numpy())
            else:
                # Ragged batches hit BLAS batch-shape rounding; values still
                # agree to far below any training-relevant tolerance.
                np.testing.assert_allclose(cached_logits.numpy(), logits.numpy(),
                                           rtol=1e-9, atol=1e-9)
        assert cache.materialised

    def test_lookup_matches_on_eval_batches(self, frozen_teacher, val_loader):
        cache = TeacherCache(frozen_teacher, val_loader)
        for batch in val_loader.iter_eval():
            if not cache.serves(batch):
                continue
            logits, features = teacher_forward(frozen_teacher, batch)
            cached_logits, cached_features = cache.lookup(batch)
            np.testing.assert_array_equal(cached_logits.numpy(), logits.numpy())
            np.testing.assert_array_equal(cached_features.numpy(), features.numpy())

    def test_serves_only_window_sized_batches(self, frozen_teacher, train_loader):
        cache = TeacherCache(frozen_teacher, train_loader)
        full = train_loader.window(0, train_loader.batch_size)
        ragged = train_loader.window(0, 3)
        assert cache.serves(full)
        assert not cache.serves(ragged)

    def test_lookup_returns_constants(self, frozen_teacher, train_loader):
        cache = TeacherCache(frozen_teacher, train_loader)
        logits, features = cache.lookup(next(iter(train_loader)))
        assert not logits.requires_grad and not features.requires_grad

    def test_invalidate_recomputes_after_teacher_change(self, model_config,
                                                        train_loader):
        teacher = build_model("mdfend", model_config)
        teacher.freeze()
        teacher.eval()
        cache = TeacherCache(teacher, train_loader)
        batch = next(train_loader.iter_eval())
        stale_logits, _ = cache.lookup(batch)
        # Mutate the (frozen) weights in place: without invalidation the cache
        # keeps serving the precomputed outputs.
        for _, parameter in teacher._all_parameters_even_frozen():
            parameter.data = parameter.data + 0.05
        still_stale, _ = cache.lookup(batch)
        np.testing.assert_array_equal(still_stale.numpy(), stale_logits.numpy())
        cache.invalidate()
        assert not cache.materialised
        fresh_logits, _ = cache.lookup(batch)
        live_logits, _ = teacher_forward(teacher, batch)
        np.testing.assert_array_equal(fresh_logits.numpy(), live_logits.numpy())
        assert np.abs(fresh_logits.numpy() - stale_logits.numpy()).max() > 0

    def test_rejects_foreign_indices(self, frozen_teacher, train_loader):
        cache = TeacherCache(frozen_teacher, train_loader)
        batch = train_loader.window(0, train_loader.batch_size)
        batch.indices = np.array([0, train_loader.num_samples + 5])
        with pytest.raises(IndexError, match="different loader"):
            cache.lookup(batch)
        # Negative indices must not wrap around to the end of the cache.
        batch.indices = np.array([0, -3])
        with pytest.raises(IndexError, match="different loader"):
            cache.lookup(batch)

    def _private_loader(self, tiny_splits, tiny_vocab, tiny_channels):
        """A loader this test may mutate without corrupting shared fixtures."""
        from repro.data import DataLoader

        return DataLoader(tiny_splits.train, tiny_vocab, max_length=16,
                          batch_size=16, shuffle=False, seed=0,
                          channels=tiny_channels)

    def test_partial_invalidate_recomputes_only_touched_windows(
            self, frozen_teacher, tiny_splits, tiny_vocab, tiny_channels):
        """Window-level invalidation: touched windows re-forward against the
        mutated rows, untouched windows keep serving their original arrays
        bit-identically (they are never rewritten)."""
        loader = self._private_loader(tiny_splits, tiny_vocab, tiny_channels)
        cache = TeacherCache(frozen_teacher, loader)
        window = cache.window_size
        first = loader.window(0, window)
        second = loader.window(window, 2 * window)
        cache.lookup(first)
        before_logits, before_features = cache.lookup(second)
        before_logits = before_logits.numpy().copy()
        before_features = before_features.numpy().copy()

        # Overwrite three rows of window 0 in place with another row's
        # encoding — the cached outputs for them are now stale.
        donor = window + 1
        for row in (0, 1, 2):
            loader.token_ids[row] = loader.token_ids[donor]
            loader.mask[row] = loader.mask[donor]
            for name in loader.features:
                loader.features[name][row] = loader.features[name][donor]
        cache.invalidate(np.array([0, 1, 2]))
        assert cache.materialised  # arrays kept, only windows marked stale

        fresh_logits, _ = cache.lookup(loader.window(0, window))
        assert cache.recomputed_windows == 1
        live_logits, _ = teacher_forward(frozen_teacher, loader.window(0, window))
        np.testing.assert_array_equal(fresh_logits.numpy(), live_logits.numpy())

        after_logits, after_features = cache.lookup(second)
        np.testing.assert_array_equal(after_logits.numpy(), before_logits)
        np.testing.assert_array_equal(after_features.numpy(), before_features)
        assert cache.recomputed_windows == 1  # window 1 was never re-forwarded

    def test_partial_invalidate_tail_rows_use_overlapping_window(
            self, frozen_teacher, tiny_splits, tiny_vocab, tiny_channels):
        loader = self._private_loader(tiny_splits, tiny_vocab, tiny_channels)
        cache = TeacherCache(frozen_teacher, loader)
        total = loader.num_samples
        window = cache.window_size
        assert total % window, "fixture corpus should have a ragged tail"
        cache.lookup(loader.window(0, window))
        # Without any data mutation the recompute must reproduce the same
        # outputs — the tail re-forward uses the same overlapping pass as
        # materialisation did.
        tail_batch = loader.window(total - window, total)
        before, _ = cache.lookup(tail_batch)
        before = before.numpy().copy()
        cache.invalidate([total - 1])
        after, _ = cache.lookup(tail_batch)
        assert cache.recomputed_windows == 1
        np.testing.assert_array_equal(after.numpy(), before)

    def test_partial_invalidate_edge_cases(self, frozen_teacher, tiny_splits,
                                           tiny_vocab, tiny_channels):
        loader = self._private_loader(tiny_splits, tiny_vocab, tiny_channels)
        cache = TeacherCache(frozen_teacher, loader)
        # Before materialisation a row-level invalidate is a no-op: the first
        # lookup computes everything fresh anyway.
        cache.invalidate([0, 1])
        assert not cache.materialised
        cache.lookup(loader.window(0, cache.window_size))
        assert cache.recomputed_windows == 0
        # Empty index sets are a no-op; out-of-range rows are rejected.
        cache.invalidate([])
        cache.invalidate(np.empty(0, dtype=np.int64))
        with pytest.raises(IndexError, match="outside the dataset"):
            cache.invalidate([loader.num_samples])
        with pytest.raises(IndexError, match="outside the dataset"):
            cache.invalidate([-1])
        # invalidate(None) keeps the legacy drop-everything contract.
        cache.invalidate(None)
        assert not cache.materialised
