"""CLI error paths: one readable diagnostic line, non-zero exit, no traceback."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import cli
from repro.serve import WEIGHTS_FILE

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def _flip_byte(path: str, offset: int = 200) -> None:
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[offset % len(blob)] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


def _one_diagnostic_line(captured: str) -> None:
    assert captured.startswith("predict: ")
    assert captured.count("\n") == 1
    assert "Traceback" not in captured


class TestPredictErrorPaths:
    def test_missing_artifact(self, tmp_path, capsys):
        code = cli.main(["predict", "--pipeline", str(tmp_path / "nowhere"),
                         "--text", "some news"])
        assert code == 2
        err = capsys.readouterr().err
        _one_diagnostic_line(err)
        assert "no pipeline artifact" in err

    def test_corrupt_artifact(self, artifact, capsys):
        _flip_byte(os.path.join(artifact, WEIGHTS_FILE))
        code = cli.main(["predict", "--pipeline", artifact, "--text", "some news"])
        assert code == 2
        err = capsys.readouterr().err
        _one_diagnostic_line(err)
        assert "checksum mismatch" in err

    def test_unreadable_input_file(self, artifact, tmp_path, capsys):
        code = cli.main(["predict", "--pipeline", artifact,
                         "--input", str(tmp_path)])  # a directory, not a file
        assert code == 2
        err = capsys.readouterr().err
        _one_diagnostic_line(err)
        assert "cannot read --input" in err

    def test_non_utf8_input_file(self, artifact, tmp_path, capsys):
        binary = tmp_path / "garbage.bin"
        binary.write_bytes(b"\xff\xfe\x00 not text \x9c")
        code = cli.main(["predict", "--pipeline", artifact, "--input", str(binary)])
        assert code == 2
        _one_diagnostic_line(capsys.readouterr().err)

    def test_unknown_domain(self, artifact, capsys):
        code = cli.main(["predict", "--pipeline", artifact,
                         "--text", "some news", "--domain", "astrology"])
        assert code == 2
        err = capsys.readouterr().err
        _one_diagnostic_line(err)
        assert "astrology" in err

    def test_no_texts_given(self, artifact, capsys):
        code = cli.main(["predict", "--pipeline", artifact])
        assert code == 2
        err = capsys.readouterr().err
        _one_diagnostic_line(err)
        assert "no texts" in err

    def test_valid_artifact_still_predicts(self, artifact, capsys):
        code = cli.main(["predict", "--pipeline", artifact,
                         "--text", "breaking dom1_topic3 fake_sig_1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p(fake)=" in out


class TestPredictSubprocess:
    def test_corrupt_artifact_prints_no_traceback_in_a_real_process(
            self, artifact, tmp_path):
        """The end-user view: exit 2, a one-line stderr, zero traceback."""
        _flip_byte(os.path.join(artifact, WEIGHTS_FILE))
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "predict",
             "--pipeline", artifact, "--text", "some news"],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("predict: ")
        assert result.stderr.strip().count("\n") == 0


class TestVerifySubcommand:
    """`repro verify`: exit 0 on intact artifacts, 2 with per-file diagnosis."""

    def test_intact_artifact_verifies_clean(self, artifact, capsys):
        code = cli.main(["verify", "--pipeline", artifact])
        out = capsys.readouterr().out
        assert code == 0
        assert "all" in out and "files intact" in out
        # One status line per recorded file, each carrying a digest prefix.
        ok_lines = [line for line in out.splitlines() if line.startswith("  ok")]
        assert len(ok_lines) >= 3  # manifest, weights, vocab at minimum
        assert all("sha256=" in line for line in ok_lines)
        # The backend line reads the v2 manifest: kind, fingerprint and the
        # channel names taken from the channel specs.
        assert "encoder backend kind=local" in out
        assert "channels=plm,style,emotion" in out

    def test_corrupt_file_is_named_with_both_digests(self, artifact, capsys):
        _flip_byte(os.path.join(artifact, WEIGHTS_FILE))
        code = cli.main(["verify", "--pipeline", artifact])
        captured = capsys.readouterr()
        assert code == 2
        corrupt = [line for line in captured.out.splitlines()
                   if line.startswith("  CORRUPT")]
        assert len(corrupt) == 1
        assert WEIGHTS_FILE in corrupt[0]
        assert "expected sha256=" in corrupt[0] and "actual=" in corrupt[0]
        assert "1 of" in captured.err and "damaged" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_is_reported(self, artifact, capsys):
        os.remove(os.path.join(artifact, "vocab.json"))
        code = cli.main(["verify", "--pipeline", artifact])
        out = capsys.readouterr().out
        assert code == 2
        assert any(line.startswith("  MISSING") and "vocab.json" in line
                   for line in out.splitlines())

    def test_nonexistent_artifact_path(self, tmp_path, capsys):
        code = cli.main(["verify", "--pipeline", str(tmp_path / "nowhere")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no pipeline artifact" in err

    def test_artifact_without_checksums_is_refused(self, artifact, capsys):
        os.remove(os.path.join(artifact, "checksums.json"))
        code = cli.main(["verify", "--pipeline", artifact])
        err = capsys.readouterr().err
        assert code == 2
        assert "records no checksums" in err and "re-export" in err

    def test_unreadable_checksums_file(self, artifact, capsys):
        with open(os.path.join(artifact, "checksums.json"), "w") as handle:
            handle.write("{not json")
        code = cli.main(["verify", "--pipeline", artifact])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read checksums.json" in err

    def test_checksums_file_that_is_not_an_object(self, artifact, capsys):
        with open(os.path.join(artifact, "checksums.json"), "w") as handle:
            handle.write('["manifest.json", "%s", "vocab.json"]' % WEIGHTS_FILE)
        code = cli.main(["verify", "--pipeline", artifact])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("verify: ") and err.count("\n") == 1
        assert "not a JSON object" in err


class TestPoolFlagErrors:
    """Bad pool flags fail before any worker starts, in the CLI contract."""

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--pipeline", "unused", "--workers", "0"],
         "workers must be >= 1"),
        (["serve", "--pipeline", "unused", "--deadline-ms", "0"],
         "default_deadline_ms must be positive"),
        (["sweep", "--jobs", "-1"], "jobs must be >= 0"),
        (["sweep", "--cell-timeout", "0"], "cell_timeout_s must be positive"),
        (["sweep", "--tables", "table4", "table4"],
         "['table4'] named more than once"),
    ])
    def test_one_readable_line(self, argv, message, capsys):
        code = cli.main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert message in err
