"""JSON result serialisation and the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.config import experiment_config
from repro.experiments.io import load_results, report_to_dict, results_to_json, save_results
from repro.experiments.orchestrator import TABLE_CELLS
from repro.experiments.runner import prepare_data
from repro.metrics import evaluate_predictions
from repro.serve import WEIGHTS_FILE


def _report():
    y_true = np.array([1, 0, 1, 0, 1, 0])
    y_pred = np.array([1, 0, 0, 0, 1, 1])
    domains = np.array([0, 0, 1, 1, 2, 2])
    return evaluate_predictions(y_true, y_pred, domains, ["a", "b", "c"], model_name="toy")


class TestResultsIO:
    def test_report_to_dict_contains_error_rates(self):
        payload = report_to_dict(_report())
        assert set(payload["fnr_per_domain"]) == {"a", "b", "c"}
        assert payload["model"] == "toy"

    def test_results_to_json_handles_nested_structures(self):
        blob = results_to_json({"rows": {"toy": _report()}, "values": [np.float64(0.5)]})
        parsed = json.loads(blob)
        assert parsed["rows"]["toy"]["f1"] == pytest.approx(_report().overall_f1)
        assert parsed["values"][0] == 0.5

    def test_save_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "results.json"
        save_results({"toy": _report()}, path)
        loaded = load_results(path)
        assert loaded["toy"]["total"] == pytest.approx(_report().total)

    def test_numpy_arrays_serialised_as_lists(self):
        parsed = json.loads(results_to_json({"array": np.arange(3)}))
        assert parsed["array"] == [0, 1, 2]


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("stats", "audit", "compare", "ablation", "case-study"):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_stats_command_runs_and_saves(self, tmp_path, capsys):
        output = tmp_path / "stats.json"
        code = main(["stats", "--dataset", "chinese", "--scale", "0.05",
                     "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "science" in captured and "%Fake" in captured
        assert output.exists()
        assert load_results(output)["statistics"]["total"] > 0

    def test_compare_command_small_subset(self, tmp_path, capsys):
        output = tmp_path / "compare.json"
        code = main(["compare", "--dataset", "chinese", "--scale", "0.05",
                     "--epochs", "1", "--baselines", "bert", "--no-dtdbd",
                     "--output", str(output)])
        assert code == 0
        assert "BERT" in capsys.readouterr().out
        loaded = load_results(output)
        assert "bert" in loaded and "f1" in loaded["bert"]

    def test_ablation_table9_matches_the_sweep_cell(self, tmp_path, capsys):
        """`ablation` prints the Table IX rows the sweep's ``table9`` cell
        builds on the same settings: Table IX starts from a reseeded bundle,
        not from the shuffle streams Table VIII left behind."""
        output = tmp_path / "ablation.json"
        code = main(["ablation", "--dataset", "chinese", "--scale", "0.05",
                     "--epochs", "1", "--students", "textcnn_s", "--output", str(output)])
        assert code == 0
        assert "DAT vs DAT-IE (textcnn_s)" in capsys.readouterr().out
        config = experiment_config("chinese", {"scale": 0.05, "epochs": 1})
        bundle = prepare_data(config)
        bundle.reseed()
        _, results = TABLE_CELLS["table9"].runner(config, bundle)
        expected = json.loads(results_to_json(results))["textcnn_s"]
        assert load_results(output)["dat"]["textcnn_s"] == expected


class TestServeCLI:
    def test_parser_has_serving_subcommands(self):
        text = build_parser().format_help()
        assert "export" in text and "predict" in text

    def test_export_then_predict_fresh_process_state(self, tmp_path, capsys):
        """`export` writes an artifact that `predict` can serve with no shared state."""
        artifact = tmp_path / "detector"
        code = main(["export", "--dataset", "chinese", "--scale", "0.05",
                     "--epochs", "1", "--out", str(artifact)])
        assert code == 0
        assert "exported baseline" in capsys.readouterr().out
        assert (artifact / "manifest.json").exists()
        assert (artifact / WEIGHTS_FILE).exists()
        assert (artifact / "vocab.json").exists()

        output = tmp_path / "predictions.json"
        code = main(["predict", "--pipeline", str(artifact),
                     "--text", "breaking dom3_topic17 fake_sig_2 emo_arousal_high",
                     "--text", "calm dom0_topic2 common_word report",
                     "--domain", "science", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "p(fake)=" in out and "science" in out
        predictions = load_results(output)
        assert len(predictions) == 2
        for row in predictions:
            assert row["label_name"] in ("real", "fake")
            assert 0.0 <= row["probability_fake"] <= 1.0
            assert row["domain"] == "science"

    def test_predict_requires_texts(self, tmp_path, capsys):
        assert main(["predict", "--pipeline", str(tmp_path)]) == 2
        assert "no texts" in capsys.readouterr().err

    def test_predict_rejects_unknown_domain_cleanly(self, tmp_path, capsys):
        artifact = tmp_path / "detector"
        main(["export", "--dataset", "chinese", "--scale", "0.05",
              "--epochs", "1", "--out", str(artifact)])
        capsys.readouterr()
        code = main(["predict", "--pipeline", str(artifact),
                     "--text", "x", "--domain", "galactic"])
        assert code == 2
        assert "unknown domain" in capsys.readouterr().err

    def test_predict_reads_input_file(self, tmp_path, capsys):
        artifact = tmp_path / "detector"
        main(["export", "--dataset", "chinese", "--scale", "0.05",
              "--epochs", "1", "--out", str(artifact)])
        capsys.readouterr()
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("first item text\n\nsecond item text\n")
        assert main(["predict", "--pipeline", str(artifact),
                     "--input", str(corpus)]) == 0
        assert capsys.readouterr().out.count("p(fake)=") == 2
