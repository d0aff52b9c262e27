"""End-to-end chaos narrative: crash training, resume, export, corrupt, refuse.

One compact tier-1 scenario walking the whole reliability story in order —
the same journey a real run takes when the machine dies under it:

1. a 2-epoch training run is killed mid-epoch by an injected fault;
2. a fresh trainer resumes from the last per-batch snapshot and finishes
   bit-identically to an uninterrupted reference run;
3. the resumed model is exported as a serving pipeline and scores raw text;
4. one flipped byte in the artifact is detected and refused readably;
5. re-exporting heals the artifact and serving resumes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import Trainer, TrainerConfig
from repro.models import build_model
from repro.reliability import FaultPlan, InjectedFault, inject
from repro.serve import (
    WEIGHTS_FILE,
    Pipeline,
    PipelineError,
    load_pipeline,
    save_pipeline,
)
from repro.utils import set_global_seed


def test_chaos_smoke_crash_resume_export_corrupt_refuse(tmp_path, make_world):
    world = make_world()

    def build(config=None):
        set_global_seed(0)
        model = build_model("textcnn_s", world.config)
        train, val = world.loaders()
        return Trainer(model, config or TrainerConfig(epochs=2, learning_rate=2e-3)), train, val

    # Reference: the run that never crashes.
    reference, train, val = build()
    ref_losses = reference.fit(train, val).train_losses

    # Crash at batch 6 of epoch 0, with per-batch snapshots on.
    snap = str(tmp_path / "trainer.snap")
    crashed, train, val = build(TrainerConfig(epochs=2, learning_rate=2e-3,
                                              snapshot_path=snap, snapshot_every=1))
    with pytest.raises(InjectedFault):
        with inject(FaultPlan().fail("trainer.step", after=6)):
            crashed.fit(train, val)
    assert os.path.exists(snap)

    # Resume in a fresh trainer; the trajectory must match the reference bit-for-bit.
    resumed, train, val = build()
    resumed.resume(snap, train_loader=train)
    losses = resumed.fit(train, val).train_losses
    assert losses == ref_losses
    for name, array in reference.model.state_dict().items():
        assert np.array_equal(array, resumed.model.state_dict()[name]), name

    # Export the survivor as a serving artifact and score raw text.
    artifact = str(tmp_path / "detector")
    save_pipeline(Pipeline.from_training(resumed.model, world.vocab, world.encoder,
                                         max_length=16,
                                         domain_names=list(world.dataset.domain_names)),
                  artifact)
    predictor = load_pipeline(artifact).predictor()
    [prediction] = predictor.predict(["breaking dom1_topic3 fake_sig_1"])
    assert prediction.ok and prediction.label in (0, 1)

    # One flipped byte anywhere in the artifact is refused with a readable error.
    weights = os.path.join(artifact, WEIGHTS_FILE)
    blob = bytearray(open(weights, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(weights, "wb").write(bytes(blob))
    with pytest.raises(PipelineError, match="checksum mismatch"):
        load_pipeline(artifact)
    assert predictor.health()["status"] == "degraded"

    # Re-exporting heals it (atomic replace of every file), serving resumes.
    save_pipeline(predictor.pipeline, artifact)
    healed = load_pipeline(artifact).predictor()
    [again] = healed.predict(["breaking dom1_topic3 fake_sig_1"])
    assert again.probabilities == prediction.probabilities
