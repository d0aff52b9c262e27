"""Fault-tolerant serving tier: supervision, backpressure, deadlines, parity.

The headline (tier-1) test is the chaos smoke: two workers, one injected
kill mid-stream, and the contract that makes the pool trustworthy — zero
lost tickets, the death detected and the slot respawned, and every returned
prediction bit-identical to a single-process :class:`repro.serve.Predictor`
replaying the same batch compositions.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.reliability import FaultPlan
from repro.serve import (
    WEIGHTS_FILE,
    PipelineError,
    Server,
    ServerConfig,
    ServerOverloaded,
)

def _submit_all(server, texts, domains):
    return [server.submit_ticket(text, domain=domain)
            for text, domain in zip(texts, domains)]


def assert_bit_parity(server, tickets, reference_predictor):
    """Replay the server's recorded batch compositions through the reference
    predictor and require float-equality on every probability.

    Parity must be checked per *batch composition* (not per item): the fused
    batched GEMMs round identically only for identical batch shapes, which is
    exactly what the server's workers and this replay share.
    """
    by_ticket = {ticket.id: ticket for ticket in tickets}
    assert server.batch_records, "server was not configured with record_batches"
    checked = 0
    for record in server.batch_records:
        reference = reference_predictor.predict(record["texts"],
                                                domains=record["domains"])
        for ticket_id, expected in zip(record["tickets"], reference):
            ticket = by_ticket.get(ticket_id)
            if ticket is None:  # batch from another submission wave
                continue
            assert ticket.prediction.probabilities == expected.probabilities
            assert ticket.prediction.label == expected.label
            checked += 1
    assert checked == len(tickets)


class TestChaosSmoke:
    def test_injected_worker_kill_recovers_with_bit_parity(
            self, artifact, sample_requests, reference_predictor):
        """A worker dying mid-batch costs a respawn, never an answer.

        Worker 0 is killed (injected ``SystemExit`` at ``serve.worker.step``)
        on its second claimed batch.  The supervisor must detect the death,
        respawn the slot, re-dispatch everything the dead worker held, and
        every prediction must be bit-identical to the single-process path.
        """
        texts, domains = sample_requests
        plan = FaultPlan(seed=1).fail("serve.worker.step", error=SystemExit,
                                      after=1, times=1)
        config = ServerConfig(workers=2, max_batch=8, max_latency_ms=2.0,
                              record_batches=True, fault_plans={0: plan})
        with Server(artifact, config) as server:
            assert server.wait_ready(60.0)
            tickets = _submit_all(server, texts, domains)
            assert server.drain(60.0), "queue failed to drain after the kill"
            results = [ticket.result(timeout=5.0) for ticket in tickets]

            assert all(result.ok for result in results), \
                [result.error for result in results if not result.ok]
            snap = server.stats.snapshot()
            assert snap["submitted"] == len(texts)
            assert snap["served"] == len(texts)      # zero lost tickets
            assert snap["in_queue"] == 0
            assert snap["worker_deaths"] >= 1
            assert snap["worker_restarts"] >= 1
            assert snap["redispatched"] >= 1
            assert_bit_parity(server, tickets, reference_predictor)

    def test_sigkill_recovers(self, artifact, sample_requests):
        """SIGKILL — no Python cleanup at all — is survived the same way."""
        texts, domains = sample_requests
        config = ServerConfig(workers=2, max_batch=4, max_latency_ms=2.0)
        with Server(artifact, config) as server:
            assert server.wait_ready(60.0)
            tickets = _submit_all(server, texts[:24], domains[:24])
            os.kill(server.worker_pids()[0], signal.SIGKILL)
            tickets += _submit_all(server, texts[24:], domains[24:])
            assert server.drain(60.0)
            assert all(t.result(timeout=5.0).ok for t in tickets)
            snap = server.stats.snapshot()
            assert snap["served"] == len(texts)
            assert snap["worker_deaths"] >= 1
            assert snap["worker_restarts"] >= 1


class TestBackpressure:
    def test_high_water_mark_sheds_with_readable_error(self, artifact):
        """Past the high-water mark submissions fail fast, not queue forever."""
        plan = FaultPlan().stall("serve.worker.step", delay_s=0.2, times=None)
        config = ServerConfig(workers=1, max_batch=4, max_latency_ms=1.0,
                              queue_high_water=8, fault_plans={0: plan})
        with Server(artifact, config) as server:
            assert server.wait_ready(60.0)
            accepted = []
            with pytest.raises(ServerOverloaded, match="high-water"):
                for index in range(50):
                    accepted.append(server.submit_ticket(
                        f"breaking dom1_topic{index} fake_sig_1 news"))
            assert len(accepted) == 8
            assert server.stats.shed >= 1
            # The accepted tickets still resolve; nothing is lost to the shed.
            assert server.drain(60.0)
            assert all(t.result(timeout=5.0).ok for t in accepted)

    def test_deadline_expires_before_dispatch(self, artifact):
        """An expired ticket is shed by the dispatcher, never scored."""
        config = ServerConfig(workers=1, max_batch=32, max_latency_ms=500.0)
        with Server(artifact, config) as server:
            assert server.wait_ready(60.0)
            tickets = [server.submit_ticket(f"dom2_topic{i} news item",
                                            deadline_ms=20.0)
                       for i in range(3)]
            time.sleep(0.05)  # all deadlines pass while the batch is pending
            assert server.drain(30.0)
            for ticket in tickets:
                prediction = ticket.result(timeout=5.0)
                assert not prediction.ok
                assert "deadline expired" in prediction.error
            assert server.stats.expired == 3
            assert server.stats.served == 0

    def test_non_positive_deadline_rejected(self, artifact, running_server):
        with pytest.raises(ValueError, match="deadline_ms"):
            running_server.submit_ticket("some news text", deadline_ms=0.0)


@pytest.fixture(scope="module")
def running_server(artifact):
    """A small healthy pool shared by the cheap API-surface tests."""
    config = ServerConfig(workers=1, max_batch=4, max_latency_ms=2.0)
    with Server(artifact, config) as server:
        assert server.wait_ready(60.0)
        yield server


class TestSubmissionValidation:
    def test_empty_text_rejected(self, running_server):
        with pytest.raises(ValueError, match="empty"):
            running_server.submit_ticket("   ")
        assert running_server.stats.rejected >= 1

    def test_unknown_domain_rejected(self, running_server):
        with pytest.raises(KeyError, match="unknown domain"):
            running_server.submit_ticket("some news", domain="astrology")

    def test_out_of_range_domain_index_rejected(self, running_server):
        with pytest.raises(KeyError, match="outside"):
            running_server.submit_ticket("some news", domain=10_000)

    def test_submit_after_stop_raises(self, artifact):
        server = Server(artifact, ServerConfig(workers=1)).start()
        server.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            server.submit_ticket("some news")


class TestAsyncFrontend:
    def test_submit_and_submit_many(self, running_server, sample_requests,
                                    reference_predictor):
        texts, domains = sample_requests

        async def drive():
            single = await running_server.submit(texts[0], domain=domains[0])
            batch = await running_server.submit_many(texts[1:9], domains[1:9])
            return single, batch

        single, batch = asyncio.run(drive())
        assert single.ok and all(p.ok for p in batch)
        # Async answers carry real scores (queue latency included).
        assert single.label in (0, 1)
        assert single.latency_ms > 0

    def test_submit_many_isolates_bad_items(self, running_server):
        async def drive():
            return await running_server.submit_many(
                ["a fine news item", "   ", "another fine item"])

        good_a, bad, good_b = asyncio.run(drive())
        assert good_a.ok and good_b.ok
        assert not bad.ok and "empty" in bad.error


class TestSupervision:
    def test_health_reports_pool_and_ledger(self, running_server):
        report = running_server.health()
        assert report["status"] == "ok"
        assert report["model"] == "textcnn_s"
        assert len(report["workers"]) == 1
        assert report["workers"][0]["alive"] and report["workers"][0]["ready"]
        queue = report["queue"]
        for key in ("submitted", "served", "failed", "rejected", "shed",
                    "expired", "worker_deaths", "worker_restarts",
                    "redispatched"):
            assert key in queue

    def test_fatal_worker_startup_fails_server_readably(self, server_pipeline,
                                                        tmp_path):
        """A corrupt artifact is unrecoverable: fail fast, name the cause."""
        from repro.serve import save_pipeline

        path = str(tmp_path / "damaged")
        save_pipeline(server_pipeline, path)
        with open(os.path.join(path, WEIGHTS_FILE), "ab") as handle:
            handle.write(b"garbage")
        # Parent-side verification would catch this first; disable it so the
        # worker's own verify_pipeline is what trips.
        config = ServerConfig(workers=1, verify_artifact=False)
        server = Server(path, config).start()
        try:
            with pytest.raises(RuntimeError, match="cannot start"):
                server.wait_ready(30.0)
        finally:
            server.stop()

    def test_parent_side_verification_fails_fast(self, server_pipeline,
                                                 tmp_path):
        from repro.serve import save_pipeline

        path = str(tmp_path / "damaged2")
        save_pipeline(server_pipeline, path)
        os.remove(os.path.join(path, "vocab.json"))
        with pytest.raises(PipelineError):
            Server(path, ServerConfig(workers=1)).start()

    def test_stop_resolves_stranded_tickets(self, artifact):
        """Tickets the pool never scored still get a terminal answer."""
        plan = FaultPlan().stall("serve.worker.step", delay_s=3.0, times=None)
        config = ServerConfig(workers=1, max_batch=4, max_latency_ms=1.0,
                              fault_plans={0: plan})
        server = Server(artifact, config).start()
        assert server.wait_ready(60.0)
        tickets = [server.submit_ticket(f"dom1_topic{i} news") for i in range(8)]
        time.sleep(0.1)  # let the dispatcher hand batches to the stalled worker
        server.stop(timeout_s=1.0)
        for ticket in tickets:
            prediction = ticket.result(timeout=5.0)
            if not prediction.ok:
                assert "stopped" in prediction.error

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(workers=0)
        with pytest.raises(ValueError):
            ServerConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServerConfig(queue_high_water=0)
        with pytest.raises(ValueError, match="default_deadline_ms"):
            ServerConfig(default_deadline_ms=0)
        with pytest.raises(ValueError, match="default_deadline_ms"):
            ServerConfig(default_deadline_ms=-5.0)
        with pytest.raises(ValueError, match="max_restarts"):
            ServerConfig(max_restarts=-1)
