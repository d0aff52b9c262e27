"""Experiment configuration and table formatting."""

import numpy as np
import pytest

from repro.experiments import (
    FUNCTIONAL_COMPARISON,
    default_chinese_config,
    default_english_config,
    format_bias_audit,
    format_case_study,
    format_compact_table,
    format_comparison_table,
    format_dataset_statistics,
    format_functional_comparison,
    format_mixing_scores,
)
from repro.analysis.bias_analysis import BiasAudit, DomainErrorRates
from repro.analysis.case_study import CasePrediction, CaseStudyRow
from repro.data import dataset_statistics_table
from repro.metrics import evaluate_predictions


class TestConfigs:
    def test_default_chinese(self):
        config = default_chinese_config()
        assert config.dataset == "chinese"
        assert config.dat.epochs == config.epochs
        assert config.trainer_config().epochs == config.epochs

    def test_default_english(self):
        config = default_english_config()
        assert config.dataset == "english"
        assert config.scale < 0.3

    def test_fast_test_config_is_small(self, fast_test_config):
        config = fast_test_config()
        assert config.epochs <= 2
        assert config.scale <= 0.05

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.77")
        monkeypatch.setenv("REPRO_EPOCHS", "3")
        config = default_chinese_config()
        assert config.scale == pytest.approx(0.77)
        assert config.epochs == 3

    def test_dtype_defaults_to_float64(self):
        assert default_chinese_config().dtype == "float64"
        assert default_english_config().dtype == "float64"

    def test_repro_dtype_env_selects_float32(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        assert default_chinese_config().dtype == "float32"
        assert default_english_config().dtype == "float32"

    def test_with_overrides(self):
        config = default_chinese_config().with_overrides(scale=0.5, max_length=10)
        assert config.scale == 0.5 and config.max_length == 10


def _fake_report(name, f1=0.9):
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 2, 60)
    y_pred = y_true.copy()
    y_pred[:6] = 1 - y_pred[:6]
    domains = rng.integers(0, 3, 60)
    return evaluate_predictions(y_true, y_pred, domains, ["a", "b", "c"], model_name=name)


class TestFormatting:
    def test_comparison_table_contains_all_rows_and_columns(self):
        reports = {"m3fend": _fake_report("m3fend"), "our_m3": _fake_report("ours")}
        text = format_comparison_table(reports, ["a", "b", "c"], title="Table VI")
        assert "Table VI" in text
        assert "M3FEND" in text and "Our(M3)" in text
        assert "FNED" in text and "Total" in text

    def test_compact_table(self):
        text = format_compact_table({"student": _fake_report("s")}, title="Table VIII")
        assert "student" in text and "F1" in text

    def test_bias_audit_formatting(self):
        audit = BiasAudit(rows=[DomainErrorRates("eann", "disaster", 0.1, 0.3),
                                DomainErrorRates("eann", "finance", 0.4, 0.05)])
        text = format_bias_audit(audit)
        assert "EANN" in text and "disaster-FNR" in text

    def test_dataset_statistics_formatting(self, tiny_dataset):
        text = format_dataset_statistics(dataset_statistics_table(tiny_dataset))
        assert "science" in text and "%Fake" in text

    def test_case_study_formatting(self):
        rows = [CaseStudyRow(description="probe", domain="politics", true_label=0,
                             expected_bias="...", predictions=[
                                 CasePrediction("dtdbd", 0.8, 0, True),
                                 CasePrediction("mdfend", 0.4, 1, False)])]
        text = format_case_study(rows)
        assert "politics" in text and "WRONG" in text and "correct" in text

    def test_mixing_scores_formatting(self):
        text = format_mixing_scores({"m3fend": {"mixing_score": 0.5},
                                     "dtdbd": {"mixing_score": 0.7}})
        assert "m3fend" in text and "0.7" in text

    def test_functional_comparison_contains_ours(self):
        text = format_functional_comparison()
        assert "DTDBD (ours)" in text
        assert FUNCTIONAL_COMPARISON["DTDBD (ours)"]["bias_type"] == "Domain"
        assert "Domain" in text
