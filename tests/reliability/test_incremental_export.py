"""Incremental pipeline export: only changed files land, crashes never mix.

An export rewrites a file only when its bytes on disk differ from the new
ones, so a re-export after a weights-only change lands ``weights.bin`` and
``checksums.json`` and nothing else, while a damaged file is repaired.  A
crash at any write of such an export leaves an artifact that loads as the
old state, as the new state, or not at all.  ``checksums.json`` may only
name plain files inside the artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn.serialization import checkpoint_bytes
from repro.reliability import FaultPlan, InjectedFault, inject, sha256_bytes
from repro.serve import (
    CHECKSUMS_FILE,
    MANIFEST_FILE,
    VOCAB_FILE,
    WEIGHTS_FILE,
    PipelineError,
    check_artifact,
    load_pipeline,
    save_pipeline,
    verify_pipeline,
    write_artifact,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
FILES = (MANIFEST_FILE, WEIGHTS_FILE, VOCAB_FILE, CHECKSUMS_FILE)


def _nudge_weights(pipeline) -> None:
    """Change one parameter in place, as a fine-tuning step would."""
    _, parameter = next(iter(pipeline.model._all_parameters_even_frozen()))
    parameter.data.flat[0] += 0.125


def _inodes(path: str) -> dict[str, int]:
    return {name: os.stat(os.path.join(path, name)).st_ino for name in FILES}


def _rewrite_sidecar(path: str, checksums: dict) -> None:
    Path(path, CHECKSUMS_FILE).write_text(json.dumps(checksums))


class TestIncrementalExport:
    def test_empty_directory_gets_the_documented_bytes(self, serving_pipeline,
                                                       tmp_path):
        path = save_pipeline(serving_pipeline, tmp_path / "artifact")
        expected = {
            WEIGHTS_FILE: bytes(checkpoint_bytes(serving_pipeline.model)),
            VOCAB_FILE: (json.dumps(serving_pipeline.vocab.to_spec())
                         + "\n").encode("utf-8"),
            MANIFEST_FILE: (json.dumps(serving_pipeline.manifest(), indent=2,
                                       sort_keys=True) + "\n").encode("utf-8"),
        }
        checksums = {name: sha256_bytes(data) for name, data in expected.items()}
        expected[CHECKSUMS_FILE] = (json.dumps(checksums, indent=2, sort_keys=True)
                                    + "\n").encode("utf-8")
        assert sorted(os.listdir(path)) == sorted(expected)
        for name, data in expected.items():
            assert Path(path, name).read_bytes() == data, name

    def test_export_digests_match_the_sidecar_and_the_fingerprint(
            self, serving_pipeline, tmp_path):
        path = str(tmp_path / "artifact")
        exported = write_artifact(serving_pipeline, path)
        assert exported.files == verify_pipeline(path)
        assert exported.fingerprint == serving_pipeline.fingerprint()
        assert load_pipeline(path).source_digests == exported

    def test_weights_only_reexport_rewrites_weights_and_sidecar(
            self, serving_pipeline, tmp_path):
        path = save_pipeline(serving_pipeline, tmp_path / "artifact")
        before = _inodes(path)
        _nudge_weights(serving_pipeline)
        exported = write_artifact(serving_pipeline, path)
        after = _inodes(path)
        rewritten = sorted(name for name in FILES if after[name] != before[name])
        assert rewritten == sorted([WEIGHTS_FILE, CHECKSUMS_FILE])
        assert load_pipeline(path).fingerprint() == exported.fingerprint

    def test_identical_reexport_rewrites_nothing(self, serving_pipeline, tmp_path):
        path = save_pipeline(serving_pipeline, tmp_path / "artifact")
        before = _inodes(path)
        save_pipeline(serving_pipeline, path)
        assert _inodes(path) == before
        assert sorted(os.listdir(path)) == sorted(FILES)  # no temp litter

    def test_damaged_vocab_is_rewritten_by_the_next_export(self, serving_pipeline,
                                                           tmp_path):
        path = save_pipeline(serving_pipeline, tmp_path / "artifact")
        good = Path(path, VOCAB_FILE).read_bytes()
        damaged = bytearray(good)
        damaged[len(damaged) // 2] ^= 0xFF
        Path(path, VOCAB_FILE).write_bytes(bytes(damaged))
        with pytest.raises(PipelineError, match="checksum mismatch"):
            load_pipeline(path)
        _nudge_weights(serving_pipeline)
        save_pipeline(serving_pipeline, path)
        assert Path(path, VOCAB_FILE).read_bytes() == good
        assert load_pipeline(path).fingerprint() == serving_pipeline.fingerprint()

    def test_crash_at_any_write_of_a_reexport_never_loads_a_mix(
            self, serving_pipeline, tmp_path):
        model = serving_pipeline.model
        old_state = {name: np.array(value) for name, value in model.state_dict().items()}
        old = serving_pipeline.fingerprint()
        _nudge_weights(serving_pipeline)
        new_state = {name: np.array(value) for name, value in model.state_dict().items()}
        new = serving_pipeline.fingerprint()
        assert new != old
        outcomes = []
        for k in range(10):
            # Lay down the old artifact, then re-export the new weights with
            # the k-th write of that export failing.
            path = str(tmp_path / f"artifact-{k}")
            model.load_state_dict(old_state)
            save_pipeline(serving_pipeline, path)
            model.load_state_dict(new_state)
            plan = FaultPlan().fail("io.write", after=k)
            with inject(plan):
                try:
                    write_artifact(serving_pipeline, path)
                except InjectedFault:
                    pass
            try:
                loaded = load_pipeline(path)
            except PipelineError:
                outcomes.append("refused")
            else:
                fingerprint = loaded.fingerprint()
                assert fingerprint in (old, new)
                assert loaded.source_digests.fingerprint == fingerprint
                outcomes.append("old" if fingerprint == old else "new")
            if not plan.fired:
                break
        # Two writes (weights, then the sidecar): a crash at the first keeps
        # the old artifact, one at the second is detected, then it lands.
        assert outcomes == ["old", "refused", "new"]


class TestSidecarNames:
    @pytest.mark.parametrize("name", ["../outside.txt", "sub/../../outside.txt",
                                      "..", ".", "", "nested/file"])
    def test_entry_outside_the_artifact_is_refused(self, artifact, tmp_path, name):
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not part of the artifact")
        checksums = json.loads(Path(artifact, CHECKSUMS_FILE).read_text())
        checksums[name] = sha256_bytes(outside.read_bytes())
        _rewrite_sidecar(artifact, checksums)
        for call in (check_artifact, verify_pipeline, load_pipeline):
            with pytest.raises(PipelineError, match="not a file name inside") as info:
                call(artifact)
            assert "\n" not in str(info.value)

    def test_absolute_entry_is_refused(self, artifact, tmp_path):
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not part of the artifact")
        checksums = json.loads(Path(artifact, CHECKSUMS_FILE).read_text())
        checksums[str(outside)] = sha256_bytes(outside.read_bytes())
        _rewrite_sidecar(artifact, checksums)
        with pytest.raises(PipelineError, match="not a file name inside"):
            check_artifact(artifact)

    @pytest.mark.parametrize("digest", [None, 7, ["abc"], {"sha256": "abc"}])
    def test_non_string_digest_is_refused(self, artifact, digest):
        checksums = json.loads(Path(artifact, CHECKSUMS_FILE).read_text())
        checksums[VOCAB_FILE] = digest
        _rewrite_sidecar(artifact, checksums)
        with pytest.raises(PipelineError, match="digest is not a string") as info:
            load_pipeline(artifact)
        assert "\n" not in str(info.value)

    def test_cli_verify_refuses_without_reading_outside(self, artifact, tmp_path):
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not part of the artifact")
        checksums = json.loads(Path(artifact, CHECKSUMS_FILE).read_text())
        checksums["../outside.txt"] = sha256_bytes(outside.read_bytes())
        _rewrite_sidecar(artifact, checksums)
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", "--pipeline", artifact],
            capture_output=True, text=True, env=env)
        assert result.returncode == 2
        assert "outside.txt" not in result.stdout
        assert "not a file name inside" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
