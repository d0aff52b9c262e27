"""The one weights container behind checkpoints, snapshots and pipeline weights.

Damage in any region (magic, index, buffer, trailer) or a truncated tail is
refused with an error naming the file; the same state always encodes to the
same bytes; files from the older ``.npz`` formats are refused with a hint.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import SnapshotError, Trainer, TrainerConfig, load_snapshot
from repro.models import build_model
from repro.nn import CheckpointError, load_checkpoint, save_checkpoint
from repro.nn.serialization import MAGIC, decode_weights
from repro.reliability import sha256_file
from repro.serve import (
    CHECKSUMS_FILE,
    MANIFEST_FILE,
    WEIGHTS_FILE,
    PipelineError,
    load_pipeline,
    save_pipeline,
)
from repro.tensor import default_dtype
from repro.utils import set_global_seed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

REGIONS = ("magic", "index", "buffer", "trailer")


def _region_offset(path: str, region: str) -> int:
    """A byte offset inside ``region`` of the container at ``path``."""
    blob = Path(path).read_bytes()
    (index_length,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    index_start = len(MAGIC) + 8
    buffer_start = -(-(index_start + index_length) // 64) * 64
    return {"magic": 3, "index": index_start + index_length // 2,
            "buffer": buffer_start + 5, "trailer": len(blob) - 7}[region]


def _flip_byte(path: str, offset: int) -> None:
    blob = bytearray(Path(path).read_bytes())
    blob[offset] ^= 0xFF
    Path(path).write_bytes(bytes(blob))


def _truncate(path: str) -> None:
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) - 40])


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _write_json(path: str, document) -> None:
    Path(path).write_text(json.dumps(document))


@pytest.fixture
def checkpoint(tmp_path, make_world):
    config = make_world().config
    path = str(tmp_path / "model.bin")
    save_checkpoint(build_model("textcnn_s", config), path)
    return path, config


@pytest.fixture
def trainer_and_snapshot(tmp_path, make_world):
    set_global_seed(0)
    world = make_world()
    train, _ = world.loaders()
    trainer = Trainer(build_model("textcnn_s", world.config),
                      TrainerConfig(epochs=1, learning_rate=2e-3))
    trainer.fit(train)
    path = str(tmp_path / "trainer.snap")
    trainer.snapshot(path)
    return trainer, path


class TestDamageIsRefused:
    @pytest.mark.parametrize("region", REGIONS)
    def test_checkpoint(self, checkpoint, region):
        path, config = checkpoint
        _flip_byte(path, _region_offset(path, region))
        with pytest.raises(CheckpointError, match=re.escape(path)):
            load_checkpoint(build_model("textcnn_s", config), path)

    @pytest.mark.parametrize("region", REGIONS)
    def test_snapshot(self, trainer_and_snapshot, region):
        _, path = trainer_and_snapshot
        _flip_byte(path, _region_offset(path, region))
        with pytest.raises(SnapshotError, match=re.escape(path)):
            load_snapshot(path)

    @pytest.mark.parametrize("region", REGIONS)
    def test_pipeline_weights(self, artifact, region):
        weights = os.path.join(artifact, WEIGHTS_FILE)
        _flip_byte(weights, _region_offset(weights, region))
        with pytest.raises(PipelineError, match=f"checksum mismatch.*{WEIGHTS_FILE}"):
            load_pipeline(artifact)
        # Even with the sidecar re-sealed over the damage, the container's
        # own trailer refuses it.
        sidecar = os.path.join(artifact, CHECKSUMS_FILE)
        recorded = _read_json(sidecar)
        recorded[WEIGHTS_FILE] = sha256_file(weights)
        _write_json(sidecar, recorded)
        with pytest.raises(PipelineError, match=re.escape(weights)):
            load_pipeline(artifact)

    def test_truncated_checkpoint(self, checkpoint):
        path, config = checkpoint
        _truncate(path)
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(build_model("textcnn_s", config), path)

    def test_truncated_snapshot(self, trainer_and_snapshot):
        _, path = trainer_and_snapshot
        _truncate(path)
        with pytest.raises(SnapshotError, match="corrupt or truncated"):
            load_snapshot(path)

    def test_refused_checkpoint_leaves_the_model_untouched(self, checkpoint):
        """Nothing is cast or copied into the model before the file checks out."""
        path, config = checkpoint
        with default_dtype("float32"):
            target = build_model("textcnn_s", config.with_overrides(seed=99))
        before = target.state_dict()
        _flip_byte(path, _region_offset(path, "buffer"))
        with pytest.raises(CheckpointError):
            load_checkpoint(target, path)
        after = target.state_dict()
        assert after.keys() == before.keys()
        for name, array in after.items():
            assert array.dtype == np.float32, name
            assert np.array_equal(array, before[name]), name


class TestContentAddressed:
    def test_same_checkpoint_state_gives_identical_bytes(self, checkpoint, tmp_path):
        path, config = checkpoint
        again = str(tmp_path / "again.bin")
        save_checkpoint(build_model("textcnn_s", config), again)
        assert Path(path).read_bytes() == Path(again).read_bytes()

    def test_same_snapshot_state_gives_identical_bytes(self, trainer_and_snapshot,
                                                       tmp_path):
        trainer, path = trainer_and_snapshot
        again = str(tmp_path / "again.snap")
        trainer.snapshot(again)
        assert Path(path).read_bytes() == Path(again).read_bytes()

    def test_same_pipeline_gives_identical_files(self, serving_pipeline, tmp_path):
        first = save_pipeline(serving_pipeline, tmp_path / "first")
        second = save_pipeline(serving_pipeline, tmp_path / "second")
        for name in os.listdir(first):
            assert (Path(first, name).read_bytes()
                    == Path(second, name).read_bytes()), name

    def test_fingerprint_survives_save_and_load(self, serving_pipeline, tmp_path):
        before = serving_pipeline.fingerprint()
        path = save_pipeline(serving_pipeline, tmp_path / "artifact")
        assert serving_pipeline.fingerprint() == before
        assert load_pipeline(path).fingerprint() == before

    def test_snapshot_meta_round_trips(self, trainer_and_snapshot):
        trainer, path = trainer_and_snapshot
        meta, arrays = decode_weights(Path(path).read_bytes(), path)
        assert meta["trainer"] and meta["cursor"]["epoch"] == trainer._epoch
        assert all(not array.flags.writeable for array in arrays.values())


class TestOlderFormatsAreRefused:
    def test_npz_snapshot(self, trainer_and_snapshot, tmp_path):
        _, path = trainer_and_snapshot
        _, arrays = decode_weights(Path(path).read_bytes(), path)
        legacy = str(tmp_path / "legacy.snap.npz")
        np.savez(legacy, **arrays)  # the archive layout earlier builds wrote
        with pytest.raises(SnapshotError, match="legacy.snap.npz.*re-save"):
            load_snapshot(legacy)

    def test_checkpoint_is_not_a_snapshot(self, checkpoint):
        path, _ = checkpoint
        with pytest.raises(SnapshotError, match="not a training snapshot"):
            load_snapshot(path)

    def test_snapshot_is_not_a_checkpoint(self, trainer_and_snapshot):
        trainer, path = trainer_and_snapshot
        with pytest.raises(CheckpointError, match="training snapshot"):
            load_checkpoint(trainer.model, path)

    def test_format_2_artifact(self, artifact):
        """A v2 artifact (``weights.npz`` + manifest version 2) asks for a re-export."""
        weights = os.path.join(artifact, WEIGHTS_FILE)
        _, arrays = decode_weights(Path(weights).read_bytes(), weights)
        os.remove(weights)
        np.savez(os.path.join(artifact, "weights.npz"), **arrays)
        manifest_path = os.path.join(artifact, MANIFEST_FILE)
        manifest = _read_json(manifest_path)
        manifest["format_version"] = 2
        _write_json(manifest_path, manifest)
        recorded = {name: sha256_file(os.path.join(artifact, name))
                    for name in os.listdir(artifact) if name != CHECKSUMS_FILE}
        _write_json(os.path.join(artifact, CHECKSUMS_FILE), recorded)
        with pytest.raises(PipelineError, match="format version 2.*re-export"):
            load_pipeline(artifact)


def test_src_has_no_npy_npz_calls():
    """Every array file goes through repro.nn.serialization's container."""
    forbidden = re.compile(r"np\.savez|np\.save\(|np\.load\(")
    offenders = []
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                lines = Path(path).read_text(encoding="utf-8").splitlines()
                for number, line in enumerate(lines, 1):
                    if forbidden.search(line):
                        offenders.append(f"{os.path.relpath(path, SRC)}:{number}")
    assert not offenders, offenders
