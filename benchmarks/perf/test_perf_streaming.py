"""Streaming subsystem: tier-1 smoke + measured drift-scenario lane.

The unmarked smoke runs in the default tier-1 collection: a tiny schedule
drives the full loop — score, drift detection (thresholds forced low so the
monitor must fire), incremental adaptation with atomic re-export and hot
reload, continual onboarding of an unseen domain — and asserts the
subsystem's invariants without timing anything.

The ``perf``-marked lane (``pytest benchmarks/perf --run-perf -q -s``)
measures sustained scoring throughput over the stream path, the drift
scenario's throughput (adaptations and one domain onboarding inline) and the
latency of one adaptation cycle (feedback fold + fine-tune epoch + re-export
+ reload).  Each lane runs ``ROUNDS`` times and records its best and median
into ``BENCH_streaming.json`` via :func:`record_bench`.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

import pytest

from _bench_utils import record_bench

from repro.data import DataLoader, make_weibo21_like
from repro.encoders import FrozenPretrainedEncoder, stock_channels
from repro.experiments.stream_schedule import (
    StreamScheduleConfig,
    generate_stream_schedule,
)
from repro.models import ModelConfig, build_model
from repro.serve import Pipeline
from repro.streaming import (
    AdapterConfig,
    DriftConfig,
    DriftMonitor,
    OnlineAdapter,
    StreamConfig,
    StreamRunner,
)
from repro.tensor import default_dtype

PLM_DIM = 16
MAX_LENGTH = 16
SCALE = 0.03
BUFFER_ROWS = 32
DTYPES = ("float64", "float32")
#: repetitions of every measured lane; the record keeps the best and median
ROUNDS = 5

_SCHEDULE = None


def _schedule():
    """One small three-phase schedule (seed -> drift -> novel), built once."""
    global _SCHEDULE
    if _SCHEDULE is None:
        _SCHEDULE = generate_stream_schedule(StreamScheduleConfig(
            scale=SCALE, seed=2024, seed_events=48, drift_events=48,
            novel_events=12, novel_labeled=6))
    return _SCHEDULE


def _build_stack(dtype: str, export_path: str):
    """Pipeline + ring loader + adapter + monitor + runner, all tiny."""
    dataset = make_weibo21_like(scale=SCALE, seed=7)
    vocab = dataset.build_vocabulary()
    with default_dtype(dtype):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=PLM_DIM, seed=3)
        config = ModelConfig(plm_dim=PLM_DIM, num_domains=dataset.num_domains,
                             cnn_channels=8, kernel_sizes=(1, 2, 3),
                             hidden_dim=16, mlp_hidden=(16,), seed=5)
        model = build_model("textcnn_s", config)
        pipeline = Pipeline.from_training(model, vocab, encoder,
                                          max_length=MAX_LENGTH,
                                          domain_names=dataset.domain_names)
        ring = dataset.__class__(dataset.items[:BUFFER_ROWS],
                                 domain_names=dataset.domain_names,
                                 name="stream-ring")
        loader = DataLoader(ring, vocab, max_length=MAX_LENGTH, batch_size=16,
                            shuffle=True, seed=0,
                            channels=stock_channels(encoder))
    adapter = OnlineAdapter(pipeline, loader, AdapterConfig(
        export_path=export_path, min_feedback=4))
    # Tiny windows + a zero PSI threshold: the monitor must fire on this
    # schedule, so the smoke exercises the adapt/reload path every run.
    monitor = DriftMonitor(pipeline.domain_names, DriftConfig(
        window=16, min_window=8, reference_size=8, min_labeled=8,
        cooldown=24, psi_threshold=0.0, bias_threshold=0.4))
    predictor = pipeline.predictor()
    runner = StreamRunner(predictor, monitor, adapter,
                          StreamConfig(max_batch=8, warmup_min_labeled=3))
    return runner


def test_streaming_smoke_full_loop():
    """Score -> drift -> adapt -> reload -> onboard, all invariants held."""
    events, _ = _schedule()
    with tempfile.TemporaryDirectory() as scratch:
        runner = _build_stack("float64", os.path.join(scratch, "artifact"))
        report = runner.run(events)

    assert report.events == len(events)
    assert report.failed == 0
    assert report.served == len(events)
    assert report.skipped_unknown_domain == 0
    # The forced-low PSI threshold guarantees drift; drift plus labeled
    # feedback guarantees at least one adaptation and hot reload.
    assert report.drift_events, "monitor never fired despite psi_threshold=0"
    assert report.adaptations
    assert runner.predictor.reloads >= len(report.adaptations)
    # The unseen phase-C domain was onboarded and served.
    assert len(report.onboardings) == 1
    assert report.onboardings[0]["domain"] == "crypto"
    assert runner.predictor.pipeline.model_config.num_domains == 10
    assert report.served_by_domain.get("crypto", 0) > 0
    # The served weights are exactly the adapter's last export.
    assert report.final_fingerprint == runner.adapter.pipeline.fingerprint()
    assert runner.predictor.last_reload_fingerprint == report.final_fingerprint


def _score_rate(predictor, servable) -> tuple[float, int]:
    """Events/s of one monitor-only scoring pass, plus its drift-event count."""
    runner = StreamRunner(
        predictor, DriftMonitor(predictor.pipeline.domain_names,
                                DriftConfig(window=16, min_window=8,
                                            reference_size=8)),
        adapter=None, config=StreamConfig(max_batch=8))
    start = time.perf_counter()
    report = runner.run(servable)
    elapsed = time.perf_counter() - start
    assert report.failed == 0
    return report.events / elapsed, len(report.drift_events)


def _best_and_median(values: list[float], best=max) -> tuple[float, float]:
    return best(values), statistics.median(values)


@pytest.mark.perf
def test_perf_streaming_drift_scenario():
    """Measured lane: scoring and scenario throughput plus the adaptation
    cycle, best and median of ROUNDS."""
    events, _ = _schedule()
    servable = [event for event in events if event.domain != "crypto"]
    entries = []
    with tempfile.TemporaryDirectory() as scratch:
        # Pure scoring throughput (monitoring on, no adapter) per dtype.  The
        # dtypes alternate which one runs first in each round, so neither
        # one always pays the warm-up.
        predictors = {dtype: _build_stack(dtype, os.path.join(
            scratch, f"a-{dtype}")).predictor for dtype in DTYPES}
        rates = {dtype: [] for dtype in DTYPES}
        drift = {}
        for round_index in range(ROUNDS):
            order = DTYPES if round_index % 2 == 0 else DTYPES[::-1]
            for dtype in order:
                rate, drift[dtype] = _score_rate(predictors[dtype], servable)
                rates[dtype].append(rate)
        for dtype in DTYPES:
            best, median = _best_and_median(rates[dtype])
            entries.append({
                "name": f"stream_score_throughput_{dtype}",
                "events": len(servable),
                "rounds": ROUNDS,
                "events_per_s_best": round(best, 1),
                "events_per_s_median": round(median, 1),
                "drift_events": drift[dtype],
            })

        # Full drift scenario (adaptation + onboarding inline), then one
        # explicit adaptation cycle, on a fresh stack each round.
        scenario_rates, cycles = [], []
        for round_index in range(ROUNDS):
            runner = _build_stack("float32", os.path.join(
                scratch, f"adapted-{round_index}"))
            start = time.perf_counter()
            report = runner.run(events)
            scenario_rates.append(report.events / (time.perf_counter() - start))
            assert report.adaptations and report.onboardings
            adapt_start = time.perf_counter()
            for item in list(runner.adapter.loader.dataset.items[:8]):
                runner.adapter.ingest(item)
            runner.adapter.adapt("perf_lane", ordinal=len(events))
            runner.predictor.reload(runner.adapter.config.export_path)
            cycles.append(time.perf_counter() - adapt_start)
        best, median = _best_and_median(scenario_rates)
        best_cycle, median_cycle = _best_and_median(cycles, best=min)
        entries.append({
            "name": "stream_drift_scenario_float32",
            "events": report.events,
            "rounds": ROUNDS,
            "events_per_s_best": round(best, 1),
            "events_per_s_median": round(median, 1),
            "drift_events": len(report.drift_events),
            "adaptations": len(report.adaptations),
            "onboardings": len(report.onboardings),
            "adaptation_cycle_s_best": round(best_cycle, 4),
            "adaptation_cycle_s_median": round(median_cycle, 4),
        })

    path = record_bench("streaming", entries)
    print(f"\nrecorded {len(entries)} entries -> {path}")
