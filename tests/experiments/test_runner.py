"""Integration tests of the experiment runner at tiny scale.

These are the slowest tests of the suite (each trains several small models for
two epochs); they check that every table/figure pipeline runs end to end and
produces structurally correct results.
"""

import numpy as np
import pytest

from repro.experiments import (
    prepare_data,
    run_comparison,
    run_figure3_case_study,
    run_table3,
    run_table8_ablation,
    run_table9_dat_comparison,
    train_baseline,
    train_dtdbd_student,
    train_unbiased,
)


@pytest.fixture(scope="module")
def config(fast_test_config):
    return fast_test_config()


@pytest.fixture(scope="module")
def bundle(config):
    return prepare_data(config)


class TestPrepareData:
    def test_bundle_structure(self, bundle, config):
        assert bundle.num_domains == 9
        assert [channel.name for channel in bundle.channels] == ["plm", "style", "emotion"]
        assert set(bundle.train_loader.features) == {"plm", "style", "emotion"}
        assert len(bundle.splits.train) > len(bundle.splits.val)
        assert bundle.model_config().plm_dim == config.plm_dim

    def test_english_dataset(self, fast_test_config):
        english = prepare_data(fast_test_config("english"))
        assert english.num_domains == 3

    def test_unknown_dataset_rejected(self, config):
        with pytest.raises(ValueError):
            prepare_data(config.with_overrides(dataset="german"))

    def test_dtype_policy_applied_end_to_end(self, config):
        """``dtype="float32"`` (REPRO_DTYPE) must reach loaders and models."""
        from repro.experiments import train_baseline
        from repro.tensor import set_default_dtype

        try:
            float_bundle = prepare_data(config.with_overrides(dtype="float32"))
            batch = next(iter(float_bundle.train_loader))
            assert batch.feature("plm").dtype == np.float32
            model, report = train_baseline("bigru", float_bundle, epochs=1)
            assert all(p.dtype == np.float32 for p in model.parameters())
            assert 0.0 <= report.overall_f1 <= 1.0
        finally:
            set_default_dtype("float64")

    def test_invalid_dtype_rejected(self, config):
        from repro.tensor import set_default_dtype

        try:
            with pytest.raises(ValueError):
                prepare_data(config.with_overrides(dtype="float16"))
        finally:
            set_default_dtype("float64")


class TestSinglePipelines:
    def test_train_baseline(self, bundle):
        model, report = train_baseline("bert", bundle)
        assert report.model == "bert"
        assert 0.0 <= report.overall_f1 <= 1.0

    def test_train_unbiased_and_dtdbd(self, bundle):
        unbiased, unbiased_report = train_unbiased(bundle)
        clean, _ = train_baseline("mdfend", bundle, seed_offset=9)
        student, report, trainer = train_dtdbd_student(bundle, unbiased, clean)
        assert 0.0 <= report.overall_f1 <= 1.0
        assert len(trainer.weight_history) >= 2
        assert unbiased_report.model.endswith("dat-ie")


class TestTablePipelines:
    def test_run_comparison_subset(self, config, bundle):
        reports = run_comparison(config, baselines=("bert", "mdfend"), bundle=bundle)
        assert {"bert", "mdfend", "our_md", "our_m3"} == set(reports)
        for report in reports.values():
            assert report.total >= 0.0

    def test_run_table3(self, config, bundle):
        audit = run_table3(config, models=("eann", "mdfend"), bundle=bundle)
        assert {row.model for row in audit.rows} == {"eann", "mdfend"}
        summary = audit.skew_summary()
        assert "eann" in summary

    def test_run_table8(self, config, bundle):
        results = run_table8_ablation(config, student_names=("textcnn_s",), bundle=bundle)
        rows = results["textcnn_s"]
        assert set(rows) == {"student", "student+dat_ie", "teacher_m3", "student+dnd",
                             "student+add", "wo_daa", "dtdbd"}

    def test_run_table9(self, config, bundle):
        results = run_table9_dat_comparison(config, student_names=("textcnn_s",), bundle=bundle)
        assert set(results["textcnn_s"]) == {"student", "student+dat", "student+dat_ie"}

    def test_run_figure3(self, config, bundle):
        rows = run_figure3_case_study(config, bundle=bundle)
        assert len(rows) == 3
        for row in rows:
            assert {p.model for p in row.predictions} == {"m3fend", "mdfend", "dtdbd"}


class TestExportPipeline:
    def test_bundle_trained_model_round_trips(self, bundle, tmp_path):
        from repro.experiments import export_pipeline
        from repro.serve import load_pipeline

        model, _ = train_baseline(bundle.config.student_name, bundle, epochs=1)
        path = export_pipeline(model, bundle, tmp_path / "artifact")
        pipeline = load_pipeline(path)
        assert pipeline.model_name == bundle.config.student_name
        assert pipeline.max_length == bundle.config.max_length
        assert pipeline.domain_names == bundle.dataset.domain_names
        assert pipeline.metadata["dataset"] == bundle.config.dataset
        assert pipeline.metadata["seed"] == bundle.config.seed
        # serving probabilities == training-loader probabilities for the same rows
        items = bundle.splits.test.items[: bundle.config.batch_size]
        loader_like = bundle.test_loader.window(0, len(items))
        expected = model.predict_proba(loader_like)
        observed = pipeline.predictor().predict_proba(
            [item.text for item in items],
            domains=[item.domain for item in items])
        np.testing.assert_array_equal(observed, expected)
