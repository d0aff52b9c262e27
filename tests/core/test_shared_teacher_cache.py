"""Frozen-teacher outputs shared per (teacher, loader) across trainers.

A second distillation from the same frozen teachers over the same loader
runs no teacher pass and trains bit-identically to an uncached run; any
change to what produced the shared arrays (teacher bytes, dtype, kernels,
window size) gets a fresh pass; the registry keeps neither teacher nor
loader alive; and row invalidation applies to the loader it names only.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.core import DTDBDConfig, DTDBDTrainer, TeacherCache, teacher_forward
from repro.data import DataLoader
from repro.models import build_model
from repro.tensor import Tensor, default_dtype, fused_kernels
from repro.utils import set_global_seed

DTYPES = ("float64", "float32")
OTHER = {"float64": "float32", "float32": "float64"}


def _loader(tiny_splits, tiny_vocab, tiny_channels, rows=64, batch_size=16):
    """A private loader of ``rows`` train rows (64 rows: no ragged batch)."""
    return DataLoader(tiny_splits.train.subset(range(rows)), tiny_vocab,
                      max_length=16, batch_size=batch_size, shuffle=True,
                      seed=0, channels=tiny_channels)


def _frozen(name, model_config, seed):
    teacher = build_model(name, model_config.with_overrides(seed=seed))
    teacher.freeze()
    teacher.eval()
    return teacher


def _fit(model_config, teachers, loader, cached):
    """One seeded two-epoch distillation of a fresh student."""
    set_global_seed(123)
    loader.reseed()
    student = build_model("textcnn_s", model_config.with_overrides(seed=31))
    trainer = DTDBDTrainer(student, *teachers,
                           DTDBDConfig(epochs=2, learning_rate=2e-3,
                                       cache_teacher_outputs=cached))
    history = trainer.fit(loader)
    return trainer, history


class TestReuse:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_second_trainer_runs_no_teacher_forward(self, dtype, model_config,
                                                    tiny_splits, tiny_vocab,
                                                    tiny_channels, count_forwards):
        with default_dtype(dtype):
            loader = _loader(tiny_splits, tiny_vocab, tiny_channels)
            teachers = (_frozen("textcnn_s", model_config, 21),
                        _frozen("mdfend", model_config, 22))
            _fit(model_config, teachers, loader, cached=True)
            forwards = count_forwards(teachers)
            reused, reused_history = _fit(model_config, teachers, loader, cached=True)
            assert forwards == {id(teacher): 0 for teacher in teachers}
            plain, plain_history = _fit(model_config, teachers, loader, cached=False)
        assert reused_history.train_losses == plain_history.train_losses
        assert reused.weight_history == plain.weight_history
        plain_state = plain.student.state_dict()
        for name, value in reused.student.state_dict().items():
            np.testing.assert_array_equal(value, plain_state[name])

    def test_cache_off_builds_no_cache(self, model_config, train_loader):
        teachers = (_frozen("textcnn_s", model_config, 21),
                    _frozen("mdfend", model_config, 22))
        trainer = DTDBDTrainer(build_model("textcnn_s", model_config), *teachers,
                               DTDBDConfig(cache_teacher_outputs=False))
        assert trainer.teacher_caches(train_loader) == (None, None)


def _in_place(teacher):
    for _, parameter in teacher._all_parameters_even_frozen():
        np.add(parameter.data, 0.05, out=parameter.data)


def _served(count_forwards, teacher, loader, windows):
    """A shared cache's first served batch: ``windows`` forwards, exact."""
    forwards = count_forwards([teacher])
    cache = TeacherCache(teacher, loader)
    batch = loader.window(0, cache.window_size)
    logits, features = cache.lookup(batch)
    assert forwards[id(teacher)] == windows
    del teacher.forward_with_features
    # Gathers are constants in the default dtype, as the cache serves them;
    # a teacher cast to the other dtype forwards in its own.
    live_logits, live_features = (Tensor(output.numpy()) for output in
                                  teacher_forward(teacher, batch))
    np.testing.assert_array_equal(logits.numpy(), live_logits.numpy())
    np.testing.assert_array_equal(features.numpy(), live_features.numpy())
    return logits.numpy()


class TestRefusal:
    """Each change to what produced the shared arrays gets a fresh pass."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("change", ("none", "in_place", "astype", "unfused",
                                        "default_dtype", "batch_size"))
    def test_changed_inputs_refuse_the_shared_arrays(self, dtype, change,
                                                     model_config, tiny_splits,
                                                     tiny_vocab, tiny_channels,
                                                     count_forwards):
        with default_dtype(dtype):
            loader = _loader(tiny_splits, tiny_vocab, tiny_channels)
            teacher = _frozen("mdfend", model_config, 22)
            before = _served(count_forwards, teacher, loader, windows=4)
            if change == "none":
                after = _served(count_forwards, teacher, loader, windows=0)
                np.testing.assert_array_equal(after, before)
                return
            context = contextlib.nullcontext()
            if change == "in_place":
                _in_place(teacher)
            elif change == "astype":
                teacher.astype(OTHER[dtype])
            elif change == "unfused":
                context = fused_kernels(False)
            elif change == "default_dtype":
                context = default_dtype(OTHER[dtype])
            elif change == "batch_size":
                loader.batch_size = 8
            with context:
                _served(count_forwards, teacher, loader,
                        windows=8 if change == "batch_size" else 4)

    def test_a_cache_checks_its_stamp_once(self, model_config, tiny_splits,
                                           tiny_vocab, tiny_channels):
        """Within one cache, a changed teacher is the caller's to invalidate."""
        loader = _loader(tiny_splits, tiny_vocab, tiny_channels)
        teacher = _frozen("mdfend", model_config, 22)
        cache = TeacherCache(teacher, loader)
        batch = loader.window(0, cache.window_size)
        stale, _ = cache.lookup(batch)
        _in_place(teacher)
        still, _ = cache.lookup(batch)
        np.testing.assert_array_equal(still.numpy(), stale.numpy())
        fresh, _ = TeacherCache(teacher, loader).lookup(batch)
        live, _ = teacher_forward(teacher, batch)
        np.testing.assert_array_equal(fresh.numpy(), live.numpy())

    def test_restamp_only_vouches_for_checked_arrays(self, model_config,
                                                     tiny_splits, tiny_vocab,
                                                     tiny_channels):
        loader = _loader(tiny_splits, tiny_vocab, tiny_channels)
        teacher = _frozen("mdfend", model_config, 22)
        cache = TeacherCache(teacher, loader)
        batch = loader.window(0, cache.window_size)
        cache.lookup(batch)
        _in_place(teacher)
        # An unchecked cache cannot vouch for arrays another cache produced.
        TeacherCache(teacher, loader).restamp()
        fresh, _ = TeacherCache(teacher, loader).lookup(batch)
        live, _ = teacher_forward(teacher, batch)
        np.testing.assert_array_equal(fresh.numpy(), live.numpy())


class TestNoLeaks:
    @pytest.mark.parametrize("dropped", ("teacher", "loader", "both"))
    def test_registry_keeps_nothing_alive(self, dropped, model_config,
                                          tiny_splits, tiny_vocab, tiny_channels):
        loader = _loader(tiny_splits, tiny_vocab, tiny_channels)
        teachers = (_frozen("textcnn_s", model_config, 21),
                    _frozen("mdfend", model_config, 22))
        trainer, _ = _fit(model_config, teachers, loader, cached=True)
        refs = {"teacher": weakref.ref(teachers[0]), "loader": weakref.ref(loader)}
        del trainer
        if dropped in ("teacher", "both"):
            del teachers
        if dropped in ("loader", "both"):
            del loader
        gc.collect()
        for name, ref in refs.items():
            assert (ref() is None) == (dropped in (name, "both"))


class TestInvalidationNamesItsLoader:
    def test_rows_of_one_loader_leave_the_other_alone(self, model_config,
                                                      train_loader, val_loader):
        teachers = (_frozen("textcnn_s", model_config, 21),
                    _frozen("mdfend", model_config, 22))
        student = build_model("textcnn_s", model_config.with_overrides(seed=61))
        trainer = DTDBDTrainer(student, *teachers,
                               DTDBDConfig(epochs=1, learning_rate=2e-3))
        trainer.train_epoch(train_loader)
        trainer.train_epoch(val_loader)
        last_train_row = train_loader.num_samples - 1
        assert last_train_row >= val_loader.num_samples
        trainer.invalidate_teacher_caches(train_loader, [last_train_row])
        trainer.train_epoch(train_loader)
        trainer.train_epoch(val_loader)
        assert [cache.recomputed_windows
                for cache in trainer.teacher_caches(train_loader)] == [1, 1]
        assert [cache.recomputed_windows
                for cache in trainer.teacher_caches(val_loader)] == [0, 0]

    def test_every_teacher_over_the_loader_goes_stale(self, model_config,
                                                      tiny_splits, tiny_vocab,
                                                      tiny_channels):
        loader = _loader(tiny_splits, tiny_vocab, tiny_channels)
        first = (_frozen("textcnn_s", model_config, 21),
                 _frozen("mdfend", model_config, 22))
        second = (_frozen("textcnn_s", model_config, 23),
                  _frozen("mdfend", model_config, 24))
        trainers = [DTDBDTrainer(build_model("textcnn_s", model_config), *pair,
                                 DTDBDConfig(epochs=1, learning_rate=2e-3))
                    for pair in (first, second)]
        for trainer in trainers:
            trainer.train_epoch(loader)
        trainers[0].invalidate_teacher_caches(loader, [0])
        trainers[1].train_epoch(loader)
        assert [cache.recomputed_windows
                for cache in trainers[1].teacher_caches(loader)] == [1, 1]
