"""``stream``: drift, adaptation and onboarding through ``StreamRunner``.

Set-up builds the Weibo21-like corpus at the default scale (the corpus seed
is the workload seed), trains a ``textcnn_s`` student plus the two frozen
DTDBD teachers (DAT-IE ``textcnn_s`` and MDFEND) and generates the input: a
schedule of three phases (seed traffic, drift in one domain, then a domain
unseen at training time) from the same seed.

The timed unit is one *replay* of the schedule through a fresh stack: a
``StreamRunner`` scoring micro-batches, a ``DriftMonitor`` and a distilled
``OnlineAdapter`` (student, both teachers, a ring-buffer loader).  The
runner adapts whenever enough labeled feedback is buffered, so each replay
runs many small fine-tunes with partial teacher-cache invalidation, each
followed by an atomic checksummed export and a verified hot reload.  The
monitor detects and counts drift; adaptations follow the labeled feedback
only, so every seed's replay does the same amount of training.
Every replay starts from the same weights, so every replay must end in the
same state.

Items are events; a latency sample is one adaptation cycle (adapt, export
and reload); ``f1`` is the prequential macro-F1 of the verdicts on labeled
events.
"""

from __future__ import annotations

import copy
import os
import time

import numpy as np

from harness import Context, Verdict, unused_channel_share

SIZES = {
    "full": {"scale": 0.3, "epochs": 4,
             "schedule": {"seed_events": 800, "drift_events": 500,
                          "novel_events": 300, "novel_labeled": 24}},
    "smoke": {"scale": 0.05, "epochs": 1,
              "schedule": {"seed_events": 96, "drift_events": 64,
                           "novel_events": 24, "novel_labeled": 8}},
}
#: rows of the adapter's ring-buffer training loader
RING_ROWS = 128
#: labeled events buffered before the runner adapts
MIN_FEEDBACK = 16
#: labeled events kept per phase, as a share of the phase's events.  The
#: schedule generator labels events at random, so the number of labeled
#: events (and with it the number of adaptations) would follow the seed;
#: thinning each phase to a fixed count below any seed's draw keeps the
#: work of a replay the same for every seed.
LABELED_SHARE = {"seed": 0.4, "drift": 0.6}


def setup(ctx: Context) -> dict:
    from repro.core.dat import DATConfig
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import prepare_data, train_baseline, train_unbiased

    size = SIZES[ctx.size]
    epochs = size["epochs"]
    config = ExperimentConfig(
        dataset="chinese", scale=size["scale"], seed=ctx.seed, dtype="float32",
        epochs=epochs, batch_size=16,
        dat=DATConfig(epochs=epochs, learning_rate=2e-3, alpha=1.0))
    with ctx.span("experiments.prepare_data", opaque=True):
        bundle = prepare_data(config)
    with ctx.span("experiments.student_train", opaque=True):
        student, _ = train_baseline(config.student_name, bundle, seed_offset=10)
    with ctx.span("experiments.teacher_train", opaque=True):
        unbiased, _ = train_unbiased(bundle)
        clean, _ = train_baseline("mdfend", bundle, seed_offset=300)
    return {"bundle": bundle, "student": student, "unbiased": unbiased,
            "clean": clean, "events": _schedule(ctx)}


def _schedule(ctx: Context) -> list:
    from repro.experiments.stream_schedule import (
        StreamScheduleConfig,
        generate_stream_schedule,
    )

    size = SIZES[ctx.size]
    events, _ = generate_stream_schedule(StreamScheduleConfig(
        scale=size["scale"], seed=ctx.seed, **size["schedule"]))
    for phase, share in LABELED_SHARE.items():
        phase_events = [event for event in events if event.metadata["phase"] == phase]
        labeled = [event for event in phase_events if event.label is not None]
        keep = min(len(labeled), int(share * len(phase_events)))
        kept = {round(k * len(labeled) / keep) for k in range(keep)} if keep else set()
        for index, event in enumerate(labeled):
            if index not in kept:
                event.label = None
    return events


def unit(ctx: Context, state: dict) -> dict:
    """Build a fresh stack from the trained models and replay the schedule."""
    from repro.core.dtdbd import DTDBDConfig
    from repro.data import DataLoader
    from repro.serve import Pipeline, load_pipeline
    from repro.streaming import (
        AdapterConfig,
        DriftMonitor,
        OnlineAdapter,
        StreamConfig,
        StreamRunner,
    )
    from repro.utils import set_global_seed

    bundle, events = state["bundle"], state["events"]
    path = os.path.join(ctx.workdir, "artifact")
    set_global_seed(bundle.config.seed)
    student, unbiased, clean = (copy.deepcopy(state[name])
                                for name in ("student", "unbiased", "clean"))
    ctx.teacher_ids.clear()
    ctx.teacher_ids.update({id(unbiased), id(clean)})
    names = list(bundle.dataset.domain_names)
    pipeline = Pipeline.from_training(
        student, bundle.vocab, bundle.encoder_backend,
        tokenizer=bundle.train_loader.tokenizer, max_length=bundle.config.max_length,
        domain_names=names, channels=list(bundle.channels))
    train = bundle.splits.train
    ring = train.__class__(list(train.items[:RING_ROWS]), domain_names=list(names),
                           name="stream-ring")
    loader = DataLoader(ring, bundle.vocab, max_length=bundle.config.max_length,
                        batch_size=16, shuffle=True, seed=0, channels=bundle.channels)
    adapter = OnlineAdapter(pipeline, loader,
                            AdapterConfig(export_path=path, min_feedback=MIN_FEEDBACK),
                            unbiased_teacher=unbiased, clean_teacher=clean,
                            dtdbd_config=DTDBDConfig(learning_rate=2e-3))
    monitor = DriftMonitor(names)
    predictor = load_pipeline(path).predictor()
    # Adaptations follow labeled feedback at a fixed cadence; drift is
    # detected and counted but does not add adaptations of its own, which
    # would make the work of a replay depend on the seed.
    runner = StreamRunner(predictor, monitor, adapter,
                          StreamConfig(max_batch=16, adapt_on_drift=False,
                                       adapt_on_feedback=True))

    # Probes: one adaptation cycle runs from adapt() to the reload that
    # serves its export; every verdict is kept for prequential scoring.
    cycles, verdicts, pending = [], [], []
    adapt, reload, observe = adapter.adapt, predictor.reload, monitor.observe

    def timed_adapt(*args, **kwargs):
        start = time.perf_counter()
        record = adapt(*args, **kwargs)
        if record is not None:
            pending.append(start)
        return record

    def timed_reload(*args, **kwargs):
        fingerprint = reload(*args, **kwargs)
        if pending:
            cycles.append((pending.pop(), time.perf_counter()))
        return fingerprint

    def kept_observe(ordinal, domain, probability, predicted, truth=None):
        if truth is not None:
            verdicts.append((domain, int(truth), int(predicted)))
        return observe(ordinal, domain, probability, predicted, truth)

    adapter.adapt, predictor.reload, monitor.observe = timed_adapt, timed_reload, kept_observe
    start = time.perf_counter()
    report = runner.run(events)
    end = time.perf_counter()
    served_fingerprint = predictor.pipeline.fingerprint()
    return {
        "items": len(events), "interval": (start, end), "latencies": cycles,
        "report": report, "verdicts": verdicts,
        "domain_names": list(predictor.pipeline.domain_names),
        "consistent": (report.final_fingerprint == served_fingerprint
                       == adapter.pipeline.fingerprint()
                       == predictor.last_reload_fingerprint),
        "required": tuple(student.required_features),
    }


def _outcome(replay: dict) -> tuple:
    report = replay["report"]
    return (len(report.drift_events), len(report.adaptations),
            len(report.onboardings), report.final_fingerprint,
            tuple(replay["verdicts"]))


def _quality(replay: dict) -> tuple[float, float]:
    """Prequential macro-F1 and FNED+FPED over the labeled events."""
    from repro.metrics import evaluate_predictions

    names = replay["domain_names"]
    domains, truth, predicted = zip(*replay["verdicts"])
    report = evaluate_predictions(np.array(truth), np.array(predicted),
                                  np.array([names.index(d) for d in domains]), names)
    return report.overall_f1, report.total


def check(ctx: Context, replays: list[dict]) -> Verdict:
    first = replays[0]["report"]
    checks = {
        "all_events_served": all(r["report"].events == r["items"]
                                 and r["report"].failed == 0
                                 and r["report"].skipped_unknown_domain == 0
                                 for r in replays),
        "served_is_last_export": all(r["consistent"] for r in replays),
        # Same weights, same schedule: drift, adaptation and onboarding
        # counts, every verdict and the final weights may not move, traced
        # or not.
        "replays_identical": len({_outcome(r) for r in replays}) == 1,
    }
    counts = {"streaming.drift_events": len(first.drift_events),
              "streaming.adaptations": len(first.adaptations),
              "streaming.onboardings": len(first.onboardings)}
    f1, bias = _quality(replays[0])
    layer = {}
    if ctx.trace:
        tracer = ctx.tracer
        scored = tracer.summary().get("serve.predict", {}).get("calls", 0)
        layer = {
            "metrics.bias": bias,
            "encoders.unused_channel_share": unused_channel_share(
                tracer, replays[0]["required"]),
            "streaming.score_batch_mean": tracer.counts.get("serve.predict.items", 0)
            / max(1, scored),
            **counts,
        }
    return Verdict(
        checks=checks, attempted=sum(r["items"] for r in replays),
        failed=sum(r["report"].failed + r["report"].skipped_unknown_domain
                   for r in replays),
        f1=f1, layer=layer,
        details={"events": replays[0]["items"],
                 **{name.split(".")[1]: value for name, value in counts.items()}})
