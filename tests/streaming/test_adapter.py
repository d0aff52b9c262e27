"""Ring-buffer writes, incremental adaptation, and continual onboarding."""

import numpy as np
import pytest

from streaming_helpers import (
    DTYPES,
    MAX_LENGTH,
    build_pipeline,
    corpus,
    ring_loader,
)

from repro.data import DataLoader, MultiDomainNewsDataset, NewsItem, StreamWindowBuffer
from repro.encoders import stock_channels
from repro.serve import load_pipeline
from repro.streaming import AdapterConfig, OnlineAdapter
from repro.tensor import default_dtype


def _fresh_items(count, offset=100):
    dataset, _ = corpus()
    return [dataset.items[offset + i] for i in range(count)]


class TestStreamWindowBuffer:
    def test_written_rows_match_construction_time_encoding(self):
        """Rows written through the ring are indistinguishable from rows the
        loader would have produced had it been built over those items."""
        pipeline = build_pipeline("float64")
        loader = ring_loader(pipeline, rows=24)
        items = _fresh_items(24)
        buffer = StreamWindowBuffer(loader)
        touched = buffer.write(items)
        np.testing.assert_array_equal(touched, np.arange(24))

        dataset, vocab = corpus()
        reference = DataLoader(
            MultiDomainNewsDataset(items, domain_names=list(dataset.domain_names)),
            vocab, max_length=MAX_LENGTH, batch_size=16, shuffle=False, seed=0,
            channels=stock_channels(pipeline.encoder))
        np.testing.assert_array_equal(loader.token_ids, reference.token_ids)
        np.testing.assert_array_equal(loader.mask, reference.mask)
        np.testing.assert_array_equal(loader.labels, reference.labels)
        np.testing.assert_array_equal(loader.domains, reference.domains)
        for name in reference.features:
            np.testing.assert_array_equal(loader.features[name],
                                          reference.features[name])
        assert loader.dataset.items == items

    def test_ring_wraps_and_returns_touched_indices(self):
        loader = ring_loader(build_pipeline("float64"), rows=16)
        buffer = StreamWindowBuffer(loader)
        first = buffer.write(_fresh_items(10))
        np.testing.assert_array_equal(first, np.arange(10))
        second = buffer.write(_fresh_items(10, offset=120))
        np.testing.assert_array_equal(
            second, np.array([10, 11, 12, 13, 14, 15, 0, 1, 2, 3]))
        assert buffer.cursor == 4
        assert buffer.written == 20

    def test_empty_write_is_a_noop(self):
        loader = ring_loader(build_pipeline("float64"), rows=16)
        buffer = StreamWindowBuffer(loader)
        touched = buffer.write([])
        assert touched.size == 0
        assert buffer.cursor == 0

    def test_oversized_write_refused(self):
        loader = ring_loader(build_pipeline("float64"), rows=8)
        buffer = StreamWindowBuffer(loader)
        with pytest.raises(ValueError, match="8-row ring"):
            buffer.write(_fresh_items(9))

    def test_invalid_items_refused(self):
        loader = ring_loader(build_pipeline("float64"), rows=8)
        buffer = StreamWindowBuffer(loader)
        with pytest.raises(ValueError, match="invalid label"):
            buffer.write([NewsItem(text="x", label=7, domain=0)])
        with pytest.raises(ValueError, match="outside"):
            buffer.write([NewsItem(text="x", label=1, domain=99)])
        with pytest.raises(TypeError, match="NewsItem"):
            buffer.write(["just a string"])


def _adapter(dtype, export_path, distilled=False, rows=32, **config_kwargs):
    pipeline = build_pipeline(dtype, "textcnn_s")
    loader = ring_loader(pipeline, rows=rows)
    teachers = {}
    if distilled:
        from repro.models import build_model
        from streaming_helpers import small_config

        dataset, _ = corpus()
        with default_dtype(dtype):
            teachers = {
                "unbiased_teacher": build_model(
                    "mdfend", small_config(dataset.num_domains, seed=6)),
                "clean_teacher": build_model(
                    "mdfend", small_config(dataset.num_domains, seed=7)),
            }
    return OnlineAdapter(pipeline, loader,
                         AdapterConfig(export_path=str(export_path),
                                       **config_kwargs), **teachers)


class TestOnlineAdapter:
    def test_initial_export_exists_before_any_traffic(self, tmp_path):
        adapter = _adapter("float64", tmp_path / "artifact")
        loaded = load_pipeline(tmp_path / "artifact")
        assert loaded.fingerprint() == adapter.pipeline.fingerprint()

    def test_adapt_without_feedback_returns_none(self, tmp_path):
        adapter = _adapter("float64", tmp_path / "artifact")
        assert adapter.adapt("score_drift:health", ordinal=10) is None
        assert adapter.adaptations == []

    def test_adapt_trains_and_reexports(self, tmp_path):
        adapter = _adapter("float64", tmp_path / "artifact")
        before = adapter.pipeline.fingerprint()
        for item in _fresh_items(6):
            adapter.ingest(item)
        assert adapter.feedback_count == 6
        record = adapter.adapt("score_drift:health", ordinal=42)
        assert record is not None
        assert record.ordinal == 42
        assert record.items == 6
        assert record.touched_rows == 6
        assert len(record.losses) == record.epochs == 1
        assert record.fingerprint != before
        assert adapter.feedback_count == 0
        # The exported artifact carries exactly the fine-tuned weights.
        loaded = load_pipeline(tmp_path / "artifact")
        assert loaded.fingerprint() == record.fingerprint
        for key, value in loaded.model.state_dict().items():
            np.testing.assert_array_equal(
                value, adapter.pipeline.model.state_dict()[key])

    def test_non_finite_gradient_fails_loudly_and_exports_nothing(self, tmp_path,
                                                                  monkeypatch):
        adapter = _adapter("float64", tmp_path / "artifact")
        model = adapter.pipeline.model
        extract = model.extract_features
        monkeypatch.setattr(model, "extract_features",
                            lambda batch: extract(batch) * float("nan"))
        before = adapter.pipeline.fingerprint()
        weights = {name: value.copy() for name, value in model.state_dict().items()}
        for item in _fresh_items(6):
            adapter.ingest(item)
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            adapter.adapt("score_drift:health", ordinal=42)
        assert adapter.adaptations == []
        assert adapter.pipeline.fingerprint() == before
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, weights[name])
        assert load_pipeline(tmp_path / "artifact").fingerprint() == before

    def test_oversized_feedback_keeps_newest_ring_rows(self, tmp_path):
        adapter = _adapter("float64", tmp_path / "artifact", rows=16)
        for item in _fresh_items(30):
            adapter.ingest(item)
        record = adapter.adapt("feedback", ordinal=0)
        assert record.items == 16  # ring capacity; oldest 14 dropped

    def test_feedback_for_domain_counts_by_name(self, tmp_path):
        adapter = _adapter("float64", tmp_path / "artifact")
        names = adapter.loader.dataset.domain_names
        adapter.ingest(NewsItem(text="x", label=1, domain=0,
                                domain_name=names[0]))
        adapter.ingest(NewsItem(text="y", label=0, domain=1,
                                domain_name=names[1]))
        assert adapter.feedback_for_domain(names[0]) == 1
        assert adapter.feedback_for_domain(names[1]) == 1
        assert adapter.feedback_for_domain("missing") == 0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_distilled_adapt_invalidates_only_touched_windows(self, dtype,
                                                              tmp_path):
        adapter = _adapter(dtype, tmp_path / "artifact", distilled=True,
                           rows=32)
        # First adaptation materialises the teacher caches from scratch.
        for item in _fresh_items(4):
            adapter.ingest(item)
        adapter.adapt("warmup", ordinal=0)
        caches = [cache for cache in adapter.trainer.teacher_caches(adapter.loader)
                  if cache is not None]
        assert caches, "DTDBD trainer should have built teacher caches"
        for cache in caches:
            assert cache.materialised
            assert cache.recomputed_windows == 0
        # Second adaptation touches rows 4..7 — one 16-row window of two.
        for item in _fresh_items(4, offset=140):
            adapter.ingest(item)
        adapter.adapt("score_drift:health", ordinal=1)
        for cache in caches:
            assert cache.recomputed_windows == 1

    def test_onboard_domain_end_to_end(self, tmp_path, count_forwards):
        for dtype in DTYPES:
            self._onboard_end_to_end(dtype, tmp_path / dtype, count_forwards)

    @staticmethod
    def _onboard_end_to_end(dtype, tmp_path, count_forwards):
        adapter = _adapter(dtype, tmp_path / "artifact", distilled=True)
        for item in _fresh_items(4):
            adapter.ingest(item)
        adapter.adapt("warmup", ordinal=0)  # materialises the teacher caches
        teachers = (adapter.unbiased_teacher, adapter.clean_teacher)
        forwards = count_forwards(teachers)
        old_trainer = adapter.trainer
        record = adapter.onboard_domain("crypto", ordinal=77)
        assert record["domain"] == "crypto"
        assert record["domain_index"] == 9
        assert record["num_domains"] == 10
        assert adapter.pipeline.model_config.num_domains == 10
        assert adapter.loader.dataset.domain_names[-1] == "crypto"
        assert adapter.pipeline.domain_names[-1] == "crypto"
        # Both frozen teachers grew with the student.
        assert adapter.unbiased_teacher.config.num_domains == 10
        assert adapter.clean_teacher.config.num_domains == 10
        # Trainer was rebuilt (optimizer moments must match new shapes) and
        # reuses the teacher outputs: no full pass, and the next adaptation
        # re-forwards only the window its rows touched (rows 4..7 of 32).
        assert adapter.trainer is not old_trainer
        caches = [cache for cache in adapter.trainer.teacher_caches(adapter.loader)
                  if cache is not None]
        assert len(caches) == 2
        assert forwards == {id(teacher): 0 for teacher in teachers}
        for item in _fresh_items(4, offset=140):
            adapter.ingest(item)
        adapter.adapt("feedback", ordinal=78)
        assert [cache.recomputed_windows for cache in caches] == [1, 1]
        assert forwards == {id(teacher): 1 for teacher in teachers}
        # The re-export is loadable and carries the grown domain vocabulary.
        loaded = load_pipeline(tmp_path / "artifact")
        assert loaded.domain_names[-1] == "crypto"
        assert loaded.model_config.num_domains == 10

    def test_onboard_duplicate_domain_rejected(self, tmp_path):
        adapter = _adapter("float64", tmp_path / "artifact")
        existing = adapter.loader.dataset.domain_names[0]
        with pytest.raises(ValueError, match="already exists"):
            adapter.onboard_domain(existing, ordinal=0)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_onboarding_preserves_existing_domain_predictions(self, dtype,
                                                              tmp_path):
        """The narrative's bit-identity pin: after onboarding + hot reload,
        every pre-onboarding domain scores exactly as the pre-expansion
        artifact did."""
        adapter = _adapter(dtype, tmp_path / "artifact")
        pipeline = adapter.pipeline
        dataset, _ = corpus()
        texts = [item.text for item in dataset.items[:12]]
        domains = [item.domain for item in dataset.items[:12]]
        predictor = pipeline.predictor()
        with default_dtype(dtype):
            before = predictor.predict_proba(texts, domains=domains)
            adapter.onboard_domain("crypto", ordinal=5)
            fingerprint = predictor.reload(str(tmp_path / "artifact"))
            after = predictor.predict_proba(texts, domains=domains)
        np.testing.assert_array_equal(after, before)
        assert fingerprint == adapter.pipeline.fingerprint()
        assert predictor.pipeline.model_config.num_domains == 10

    def test_mismatched_loader_and_pipeline_rejected(self, tmp_path):
        pipeline = build_pipeline("float64")
        loader = ring_loader(pipeline, rows=16)
        loader.dataset.domain_names[0] = "renamed"
        with pytest.raises(ValueError, match="disagree on domain names"):
            OnlineAdapter(pipeline, loader,
                          AdapterConfig(export_path=str(tmp_path / "a")))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="export_path"):
            AdapterConfig(export_path="")
        with pytest.raises(ValueError, match="epochs_per_adaptation"):
            AdapterConfig(export_path="x", epochs_per_adaptation=0)
        with pytest.raises(ValueError, match="min_feedback"):
            AdapterConfig(export_path="x", min_feedback=0)


def _ring_reference(loader, pipeline):
    """A loader built from scratch over the ring's current items."""
    _, vocab = corpus()
    with default_dtype(pipeline.dtype):
        return DataLoader(
            MultiDomainNewsDataset(list(loader.dataset.items),
                                   domain_names=list(loader.dataset.domain_names)),
            vocab, max_length=MAX_LENGTH, batch_size=16, shuffle=False, seed=0,
            channels=stock_channels(pipeline.encoder))


def _assert_ring_matches(loader, reference):
    np.testing.assert_array_equal(loader.token_ids, reference.token_ids)
    np.testing.assert_array_equal(loader.mask, reference.mask)
    np.testing.assert_array_equal(loader.labels, reference.labels)
    np.testing.assert_array_equal(loader.domains, reference.domains)
    for name, values in loader.features.items():
        assert values.dtype == reference.features[name].dtype
        np.testing.assert_array_equal(values, reference.features[name])


class TestRingChannels:
    """The adapter narrows its ring loader to the channels its models read."""

    def _distilled(self, dtype, export_path):
        """TextCNN-S student, DAT-IE teacher (TextCNN-S) and MDFEND teacher."""
        from repro.models import build_model
        from streaming_helpers import small_config

        pipeline = build_pipeline(dtype, "textcnn_s")
        dataset, _ = corpus()
        with default_dtype(dtype):
            unbiased = build_model("textcnn_s", small_config(dataset.num_domains, seed=6))
            clean = build_model("mdfend", small_config(dataset.num_domains, seed=7))
        return OnlineAdapter(pipeline, ring_loader(pipeline),
                             AdapterConfig(export_path=str(export_path),
                                           min_feedback=4),
                             unbiased_teacher=unbiased, clean_teacher=clean)

    def test_student_and_teachers_keep_only_plm(self, tmp_path):
        adapter = self._distilled("float64", tmp_path / "artifact")
        loader = adapter.loader
        assert [channel.name for channel in loader.channels] == ["plm"]
        assert list(loader.features) == ["plm"]
        with pytest.raises(KeyError, match="no feature channel 'style'"):
            loader.full_batch().feature("style")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_kept_rows_match_a_fresh_loader_after_adaptation(self, dtype, tmp_path):
        adapter = self._distilled(dtype, tmp_path / "artifact")
        for item in _fresh_items(12):
            adapter.ingest(item)
        assert adapter.adapt("feedback", ordinal=1) is not None
        _assert_ring_matches(adapter.loader,
                             _ring_reference(adapter.loader, adapter.pipeline))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_multi_view_student_keeps_every_channel(self, dtype, tmp_path):
        pipeline = build_pipeline(dtype, "m3fend")
        adapter = OnlineAdapter(pipeline, ring_loader(pipeline),
                                AdapterConfig(export_path=str(tmp_path / "artifact"),
                                              min_feedback=4))
        assert list(adapter.loader.features) == ["plm", "style", "emotion"]
        for item in _fresh_items(12):
            adapter.ingest(item)
        assert adapter.adapt("feedback", ordinal=1) is not None
        _assert_ring_matches(adapter.loader,
                             _ring_reference(adapter.loader, pipeline))
