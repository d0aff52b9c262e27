"""Case-study runner (Figure 3) and the domain-bias audit (Table III)."""

import numpy as np
import pytest

from repro.analysis import (
    TABLE3_DOMAINS,
    audit_models,
    case_study_summary,
    run_case_study,
)
from repro.data import make_case_study_probes
from repro.models import build_model


@pytest.fixture(scope="module")
def probe_items():
    return make_case_study_probes(dataset_seed=3, scale=0.5)


class TestCaseStudy:
    def test_rows_structure(self, probe_items, model_config, tiny_vocab, tiny_dataset,
                            tiny_channels):
        models = {"a": build_model("bert", model_config),
                  "b": build_model("textcnn_s", model_config)}
        rows = run_case_study(probe_items, models, tiny_vocab, tiny_dataset.domain_names,
                              max_length=16, channels=tiny_channels)
        assert len(rows) == len(probe_items)
        for row in rows:
            assert {p.model for p in row.predictions} == {"a", "b"}
            for prediction in row.predictions:
                assert 0.0 <= prediction.probability_true_label <= 1.0
                assert prediction.correct == (prediction.predicted_label == row.true_label)

    def test_as_dict(self, probe_items, model_config, tiny_vocab, tiny_dataset,
                     tiny_channels):
        models = {"only": build_model("bert", model_config)}
        rows = run_case_study(probe_items, models, tiny_vocab, tiny_dataset.domain_names,
                              max_length=16, channels=tiny_channels)
        payload = rows[0].as_dict()
        assert "only" in payload["predictions"]
        assert payload["domain"] in tiny_dataset.domain_names

    def test_summary_aggregates(self, probe_items, model_config, tiny_vocab, tiny_dataset,
                                tiny_channels):
        models = {"m": build_model("textcnn_s", model_config)}
        rows = run_case_study(probe_items, models, tiny_vocab, tiny_dataset.domain_names,
                              max_length=16, channels=tiny_channels)
        summary = case_study_summary(rows)
        assert set(summary) == {"m"}
        assert 0.0 <= summary["m"]["accuracy"] <= 1.0
        assert 0.0 <= summary["m"]["mean_confidence_true_label"] <= 1.0


class TestBiasAudit:
    def test_audit_structure(self, model_config, test_loader):
        models = {"one": build_model("bert", model_config),
                  "two": build_model("textcnn_s", model_config)}
        audit = audit_models(models, test_loader)
        table = audit.as_table()
        assert set(table) == {"one", "two"}
        present_domains = {d for d in TABLE3_DOMAINS if d in test_loader.dataset.domain_names}
        assert len(audit.rows) == len(models) * len(present_domains)
        for values in table.values():
            for value in values.values():
                assert 0.0 <= value <= 1.0

    def test_skew_summary_keys(self, model_config, test_loader):
        models = {"one": build_model("bert", model_config)}
        summary = audit_models(models, test_loader).skew_summary()
        entry = summary["one"]
        assert set(entry) >= {"fake_heavy_fpr", "real_heavy_fnr",
                              "fake_heavy_overcalls_fake", "real_heavy_overcalls_real"}

    def test_unknown_domains_fall_back_to_all(self, model_config, test_loader):
        models = {"one": build_model("bert", model_config)}
        audit = audit_models(models, test_loader, domains=("nonexistent",))
        assert len(audit.rows) == len(test_loader.dataset.domain_names)
