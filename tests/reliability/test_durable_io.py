"""Atomic writes and corruption refusal across every durable artifact format."""

from __future__ import annotations

import json
import os

import pytest

from repro.models import build_model
from repro.nn import CheckpointError, load_checkpoint, save_checkpoint
from repro.reliability import (
    FaultPlan,
    InjectedFault,
    atomic_write_text,
    atomic_writer,
    inject,
    sha256_bytes,
    sha256_file,
)
from repro.serve import (
    CHECKSUMS_FILE,
    MANIFEST_FILE,
    VOCAB_FILE,
    WEIGHTS_FILE,
    PipelineError,
    load_pipeline,
    verify_pipeline,
)


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[offset % len(blob)] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


class TestAtomicWriter:
    def test_success_replaces_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        digest = atomic_write_text(path, "first")
        assert open(path).read() == "first"
        assert digest == sha256_bytes(b"first") == sha256_file(path)
        atomic_write_text(path, "second")
        assert open(path).read() == "second"

    def test_error_inside_block_leaves_target_untouched(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "intact")
        with pytest.raises(RuntimeError):
            with atomic_writer(path, "w") as handle:
                handle.write("partial garbage")
                raise RuntimeError("crash mid-write")
        assert open(path).read() == "intact"
        assert os.listdir(tmp_path) == ["out.txt"]  # no temp litter

    def test_injected_write_fault_preserves_old_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old")
        with inject(FaultPlan().fail("io.write")):
            with pytest.raises(InjectedFault):
                atomic_write_text(path, "new")
        assert open(path).read() == "old"

    def test_read_modes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="write mode"):
            with atomic_writer(str(tmp_path / "x"), "r"):
                pass


class TestCheckpointCorruption:
    @pytest.fixture
    def checkpoint(self, tmp_path, make_world):
        world = make_world()
        model = build_model("textcnn_s", world.config)
        path = str(tmp_path / "model.bin")
        save_checkpoint(model, path)
        return path, world.config

    @pytest.mark.parametrize("where", ["header", "middle", "tail"])
    def test_single_flipped_byte_is_refused(self, checkpoint, where):
        path, config = checkpoint
        size = os.path.getsize(path)
        # "header" hits the JSON index (offset 35), "middle" array data and
        # "tail" the SHA-256 trailer; the trailer check catches all three.
        offset = {"header": 35, "middle": size // 2, "tail": size - 30}[where]
        _flip_byte(path, offset)
        with pytest.raises(CheckpointError):
            load_checkpoint(build_model("textcnn_s", config), path)

    def test_truncated_checkpoint_is_refused(self, checkpoint):
        path, config = checkpoint
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(build_model("textcnn_s", config), path)

    def test_missing_checkpoint_is_a_readable_error(self, tmp_path, make_world):
        config = make_world().config
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(build_model("textcnn_s", config),
                            str(tmp_path / "nowhere.bin"))

    def test_save_is_atomic_under_write_fault(self, checkpoint):
        path, config = checkpoint
        reference = build_model("textcnn_s", config)
        with inject(FaultPlan().fail("io.write")):
            with pytest.raises(InjectedFault):
                save_checkpoint(reference, path)
        # the pre-fault checkpoint is still fully loadable
        load_checkpoint(build_model("textcnn_s", config), path)


class TestPipelineCorruption:
    @pytest.mark.parametrize("filename", [MANIFEST_FILE, VOCAB_FILE, WEIGHTS_FILE])
    def test_single_flipped_byte_in_any_file_is_refused(self, artifact, filename):
        _flip_byte(os.path.join(artifact, filename), offset=200)
        with pytest.raises(PipelineError, match="checksum mismatch"):
            load_pipeline(artifact)

    def test_unreadable_checksums_sidecar_is_refused(self, artifact):
        with open(os.path.join(artifact, CHECKSUMS_FILE), "w") as handle:
            handle.write("{not json")
        with pytest.raises(PipelineError):
            load_pipeline(artifact)

    def test_file_missing_from_sidecar_manifest_is_refused(self, artifact):
        os.unlink(os.path.join(artifact, VOCAB_FILE))
        with pytest.raises(PipelineError):
            load_pipeline(artifact)

    def test_artifact_without_sidecar_is_refused(self, artifact):
        os.unlink(os.path.join(artifact, CHECKSUMS_FILE))
        with pytest.raises(PipelineError, match="no checksums.json.*re-export"):
            verify_pipeline(artifact)
        with pytest.raises(PipelineError, match="no checksums.json"):
            load_pipeline(artifact)

    def test_sidecar_not_covering_every_file_is_refused(self, artifact):
        sidecar = os.path.join(artifact, CHECKSUMS_FILE)
        with open(sidecar) as handle:
            recorded = json.load(handle)
        del recorded[WEIGHTS_FILE]
        with open(sidecar, "w") as handle:
            json.dump(recorded, handle)
        with pytest.raises(PipelineError, match=f"does not cover.*{WEIGHTS_FILE}"):
            load_pipeline(artifact)

    def test_missing_artifact_directory(self, tmp_path):
        with pytest.raises(PipelineError, match="no pipeline artifact"):
            load_pipeline(str(tmp_path / "nowhere"))

    def test_verify_reports_every_tracked_file(self, artifact):
        checked = verify_pipeline(artifact)
        assert sorted(checked) == sorted([MANIFEST_FILE, VOCAB_FILE, WEIGHTS_FILE])


class TestResultsDurability:
    def test_save_results_is_atomic_under_write_fault(self, tmp_path):
        from repro.experiments.io import load_results, save_results

        path = str(tmp_path / "results.json")
        save_results({"f1": 0.5}, path)
        with inject(FaultPlan().fail("io.write")):
            with pytest.raises(InjectedFault):
                save_results({"f1": 0.9}, path)
        assert load_results(path)["f1"] == 0.5

    def test_truncated_results_json_is_a_readable_error(self, tmp_path):
        from repro.experiments.io import save_results, load_results

        path = str(tmp_path / "results.json")
        save_results({"f1": 0.5, "rows": list(range(50))}, path)
        blob = open(path).read()
        open(path, "w").write(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="not valid JSON"):
            load_results(path)


class TestSnapshotCorruption:
    def test_single_flipped_byte_in_snapshot_is_refused(self, tmp_path, make_world):
        from repro.core import SnapshotError, Trainer, TrainerConfig, load_snapshot
        from repro.utils import set_global_seed

        set_global_seed(0)
        world = make_world()
        train, _ = world.loaders()
        trainer = Trainer(build_model("textcnn_s", world.config),
                          TrainerConfig(epochs=1, learning_rate=2e-3))
        trainer.fit(train)
        path = str(tmp_path / "trainer.snap")
        trainer.snapshot(path)
        load_snapshot(path)  # sanity: intact snapshot round-trips
        _flip_byte(path, os.path.getsize(path) // 2)
        with pytest.raises(SnapshotError):
            load_snapshot(path)
