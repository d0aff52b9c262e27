"""Graceful degradation in serving: isolate poisoned items, stay available.

A single request that crashes the engine must fail *alone*: the other items
in its micro-batch keep their bit-identical predictions (GEMM rows are
independent, and the predictor substitutes a donor text rather than shrinking
the batch, so BLAS batch-shape sensitivity cannot perturb survivors).
"""

from __future__ import annotations

import math

import pytest

from repro.reliability import FaultPlan, InjectedFault, inject
from repro.serve import Prediction, load_pipeline

BATCH = 32


@pytest.fixture
def predictor(artifact):
    return load_pipeline(artifact).predictor()


@pytest.fixture
def texts():
    return [f"breaking dom{i % 3}_topic{i} fake_sig_{i % 2}" for i in range(BATCH)]


def _poison_plan(poison_text: str) -> FaultPlan:
    """Fail any encoder batch containing ``poison_text`` — data-dependent chaos."""
    return FaultPlan().fail("serve.encode", times=None,
                            when=lambda d: poison_text in d.get("texts", ()))


class TestPredictSafe:
    def test_single_poisoned_item_fails_alone_bit_identically(self, predictor, texts):
        reference = predictor.predict(texts)
        poison_index = 13
        plan = _poison_plan(texts[poison_index])
        with inject(plan):
            predictions = predictor.predict_safe(texts)
        assert plan.fired > 0
        assert [i for i, p in enumerate(predictions) if not p.ok] == [poison_index]
        failed = predictions[poison_index]
        assert "InjectedFault" in failed.error
        assert failed.label_name == "error" and math.isnan(failed.probability_fake)
        for index, (got, want) in enumerate(zip(predictions, reference)):
            if index == poison_index:
                continue
            assert got.probabilities == want.probabilities, index
            assert got.label == want.label

    def test_clean_batch_matches_strict_predict(self, predictor, texts):
        strict = predictor.predict(texts)
        safe = predictor.predict_safe(texts)
        assert [p.probabilities for p in safe] == [p.probabilities for p in strict]

    def test_invalid_inputs_reported_per_item_without_engine_calls(self, predictor):
        out = predictor.predict_safe(["", "   ", 42, "x" * 200_000,
                                      "ok text dom1_topic3"])
        assert [p.ok for p in out] == [False, False, False, False, True]
        assert "empty" in out[0].error
        assert "string" in out[2].error
        assert "character limit" in out[3].error

    def test_systemic_failure_reraises_instead_of_marking_everything(self, predictor, texts):
        """Total engine outage is not per-item poison: callers must see it."""
        with inject(FaultPlan().fail("serve.encode", times=None)):
            with pytest.raises(InjectedFault):
                predictor.predict_safe(texts)

    def test_multiple_poisoned_items_all_isolated(self, predictor, texts):
        reference = predictor.predict(texts)
        bad = {5, 21}
        plan = FaultPlan().fail(
            "serve.encode", times=None,
            when=lambda d: any(texts[i] in d.get("texts", ()) for i in bad))
        with inject(plan):
            predictions = predictor.predict_safe(texts)
        assert {i for i, p in enumerate(predictions) if not p.ok} == bad
        for index in set(range(BATCH)) - bad:
            assert predictions[index].probabilities == reference[index].probabilities


class TestMicroBatcherDegradation:
    def test_poisoned_ticket_fails_alone(self, predictor, texts):
        reference = predictor.predict(texts)
        poison_index = 13
        with inject(_poison_plan(texts[poison_index])):
            with predictor.microbatch(max_batch=BATCH, max_latency_ms=1e9) as queue:
                tickets = [queue.submit(text) for text in texts]
        assert all(ticket.done for ticket in tickets)
        assert queue.stats.failed == 1
        for index, ticket in enumerate(tickets):
            if index == poison_index:
                assert not ticket.result.ok
            else:
                assert ticket.result.probabilities == reference[index].probabilities

    def test_submit_rejects_invalid_requests_upfront(self, predictor):
        with predictor.microbatch(max_batch=4, max_latency_ms=1e9) as queue:
            with pytest.raises(ValueError, match="invalid request"):
                queue.submit("")
            with pytest.raises(ValueError, match="invalid request"):
                queue.submit(12345)

    def test_exception_exit_still_flushes_pending_tickets(self, predictor, texts):
        with pytest.raises(RuntimeError, match="caller bug"):
            with predictor.microbatch(max_batch=BATCH, max_latency_ms=1e9) as queue:
                tickets = [queue.submit(text) for text in texts[:4]]
                raise RuntimeError("caller bug")
        assert all(ticket.done and ticket.result.ok for ticket in tickets)

    def test_exception_exit_with_dead_engine_errors_tickets_not_suppresses(
            self, predictor, texts):
        """Drain failing during exception exit must not mask the original error."""
        with inject(FaultPlan().fail("serve.encode", times=None)):
            with pytest.raises(RuntimeError, match="caller bug"):
                with predictor.microbatch(max_batch=BATCH, max_latency_ms=1e9) as queue:
                    tickets = [queue.submit(text) for text in texts[:4]]
                    raise RuntimeError("caller bug")
        assert all(ticket.done for ticket in tickets)
        assert all(not ticket.result.ok for ticket in tickets)

    def test_engine_outage_keeps_tickets_queued_until_recovery(
            self, predictor, texts):
        """A batch in which every item fails is put back, not lost: the
        drain raises, and once the engine recovers the same tickets serve."""
        queue = predictor.microbatch(max_batch=BATCH, max_latency_ms=1e9)
        tickets = [queue.submit(text) for text in texts[:4]]
        with inject(FaultPlan().fail("serve.encode", times=None)):
            with pytest.raises(InjectedFault):
                queue.drain()
        assert not any(ticket.done for ticket in tickets)
        queue.drain()
        assert all(ticket.done and ticket.result.ok for ticket in tickets)


class TestHealth:
    def test_healthy_pipeline_reports_ok(self, predictor, artifact):
        report = predictor.health()
        assert report["status"] == "ok"
        assert report["checks"]["artifact"] == "ok"
        assert report["checks"]["inference"] == "ok"
        assert report["source_path"] == artifact

    def test_corrupted_artifact_degrades_health(self, predictor, artifact):
        import os
        from repro.serve import WEIGHTS_FILE
        weights = os.path.join(artifact, WEIGHTS_FILE)
        blob = bytearray(open(weights, "rb").read())
        blob[100] ^= 0xFF
        open(weights, "wb").write(bytes(blob))
        report = predictor.health()
        assert report["status"] == "degraded"
        assert "checksum" in report["checks"]["artifact"]
        # inference itself still works from the in-memory weights
        assert report["checks"]["inference"] == "ok"

    def test_prediction_failure_record_shape(self):
        failed = Prediction.failure("boom", domain="science")
        assert not failed.ok and failed.error == "boom"
        assert failed.as_dict()["error"] == "boom"
        assert failed.label == -1
