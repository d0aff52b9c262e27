"""``distill``: Algorithm 1's student stage, DTDBD distillation in float32.

Set-up builds the Weibo21-like corpus at the default scale (nine unbalanced
domains; the corpus seed is the workload seed), precomputes its feature
channels, and trains the two frozen teachers: a DAT-IE ``textcnn_s``
unbiased teacher and an MDFEND clean teacher.

The timed unit is one *fit*: a fresh student trained by
``DTDBDTrainer.fit`` for a fixed number of epochs with validation every
epoch (so the momentum weight scheduler runs), then evaluated on the test
split.  Every fit starts from the same seeds, so every fit must reach
bit-identical F1 and bias.

Items are train samples; a latency sample is one training step (the
interval between consecutive optimizer updates inside an epoch); ``f1`` is
the test macro-F1.
"""

from __future__ import annotations

import time

from harness import Context, Verdict

SIZES = {"full": {"scale": 0.3, "epochs": 8},
         "smoke": {"scale": 0.05, "epochs": 2}}


def setup(ctx: Context) -> dict:
    from repro.core.dat import DATConfig
    from repro.core.dtdbd import DTDBDConfig
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import prepare_data, train_baseline, train_unbiased

    size = SIZES[ctx.size]
    epochs = size["epochs"]
    config = ExperimentConfig(
        dataset="chinese", scale=size["scale"], seed=ctx.seed, dtype="float32",
        epochs=epochs, dat=DATConfig(epochs=epochs, learning_rate=2e-3, alpha=1.0),
        dtdbd=DTDBDConfig(epochs=epochs, learning_rate=2e-3))
    with ctx.span("experiments.prepare_data", opaque=True):
        bundle = prepare_data(config)
    with ctx.span("experiments.teacher_train", opaque=True):
        unbiased, _ = train_unbiased(bundle)
        clean, _ = train_baseline("mdfend", bundle, seed_offset=300)
    return {"bundle": bundle, "unbiased": unbiased, "clean": clean}


def unit(ctx: Context, state: dict) -> dict:
    """One fit + test evaluation from identical seeds."""
    from repro.core import trainer as core_trainer
    from repro.core.dtdbd import DTDBDTrainer
    from repro.models import build_model

    bundle = state["bundle"]
    bundle.reseed()
    ctx.teacher_ids.clear()
    ctx.teacher_ids.update({id(state["unbiased"]), id(state["clean"])})
    student = build_model(bundle.config.student_name,
                          bundle.model_config(seed_offset=200))
    trainer = DTDBDTrainer(student, state["unbiased"], state["clean"],
                           config=bundle.config.dtdbd)
    # Step latency probe: a timestamp per optimizer update, with a marker at
    # each epoch start so intervals never span validation.
    stamps: list = []
    optimizer_step, train_epoch = trainer.optimizer.step, trainer.train_epoch

    def step():
        optimizer_step()
        stamps.append(time.perf_counter())

    def epoch(loader):
        stamps.append(None)
        return train_epoch(loader)

    trainer.optimizer.step, trainer.train_epoch = step, epoch
    start = time.perf_counter()
    trainer.fit(bundle.train_loader, bundle.val_loader)
    report = core_trainer.evaluate_model(student, bundle.test_loader)
    end = time.perf_counter()
    return {"items": bundle.config.dtdbd.epochs * bundle.train_loader.num_samples,
            "interval": (start, end),
            "latencies": [(earlier, later) for earlier, later in zip(stamps, stamps[1:])
                          if earlier is not None and later is not None],
            "updates": sum(stamp is not None for stamp in stamps),
            "f1": report.overall_f1, "bias": report.total}


def check(ctx: Context, fits: list[dict]) -> Verdict:
    first = fits[0]
    checks = {
        # Same seeds, same data: quality may not move between fits, traced
        # or not, down to the last bit.
        "fits_bit_identical": all(fit["f1"] == first["f1"]
                                  and fit["bias"] == first["bias"] for fit in fits),
    }
    # A failed update raises, so nothing fails quietly.
    return Verdict(checks=checks, attempted=sum(fit["updates"] for fit in fits),
                   failed=0, f1=first["f1"], layer={"metrics.bias": first["bias"]},
                   details={"train_samples_per_fit": first["items"]})
