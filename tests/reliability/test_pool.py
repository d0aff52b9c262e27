"""The supervised pool on its own: handshake, drain-before-death, budgets.

``repro.serve.Server`` and the parallel sweep build on these guarantees;
here they are pinned with a tiny importable handler instead of a pipeline.
"""

from __future__ import annotations

import time

import pytest

import _pool_handlers
from repro.reliability import FaultPlan
from repro.reliability.pool import SupervisedPool


@pytest.fixture
def make_pool():
    pools = []

    def build(size=1, max_restarts=8, **kwargs):
        pool = SupervisedPool(size, _pool_handlers.setup,
                              max_restarts=max_restarts, **kwargs).start()
        pools.append(pool)
        return pool

    yield build
    for pool in pools:
        pool.shutdown(timeout_s=5.0)


def _collect(pool, kind, timeout_s=30.0):
    """Receive and reap until an event of ``kind`` arrives; return them all."""
    events = []
    deadline = time.monotonic() + timeout_s
    while not any(event[0] == kind for event in events):
        assert time.monotonic() < deadline, f"no '{kind}' event in {events}"
        message = pool.receive()
        if message is not None:
            events.append(message)
        else:
            events.extend(pool.reap())
    return events


def test_result_sent_before_death_is_delivered_not_redispatched(make_pool):
    pool = make_pool()
    pool.submit(0, "a", ("double", 21))
    pool.submit(0, "b", ("exit", 3))
    first = pool.slots[0].process
    first.join(timeout=30.0)
    assert not first.is_alive()

    # Nothing was received while the worker ran: its answer to "a" is still
    # in the pipe, and reap must hand it over before reporting the death.
    events = pool.reap()
    assert [event[0] for event in events] == ["result", "died"]
    assert events[0][:5] == ("result", 0, "a", "ok", 42)
    assert events[1] == ("died", 0, 3, True)

    # A caller re-dispatches what the dead worker still held: "b" only.
    outstanding, redispatched = {"a", "b"}, set()
    for event in events:
        if event[0] == "result":
            outstanding.discard(event[2])
        else:
            redispatched |= outstanding
    assert redispatched == {"b"}


def test_fault_plan_arms_only_the_first_incarnation(make_pool):
    kill = FaultPlan().fail("pool_test.job", error=SystemExit)
    pool = make_pool(fault_plans={0: kill})
    pool.submit(0, "a", ("double", 1))
    events = _collect(pool, "died")
    assert [event[0] for event in events] == ["died"]
    assert events[0][3] is True  # respawned

    pool.submit(0, "a", ("double", 1))  # same job, fresh incarnation
    events = _collect(pool, "result")
    assert [event[:5] for event in events] == [("result", 0, "a", "ok", 2)]
    assert pool.slots[0].spawns == 2
    assert pool.restarts_used == 1


def test_spent_restart_budget_is_reported_and_retires_the_slot(make_pool):
    pool = make_pool(max_restarts=1)
    for respawned in (True, False):
        pool.submit(0, "x", ("exit", 5))
        assert _collect(pool, "died")[-1] == ("died", 0, 5, respawned)
    slot = pool.slots[0]
    assert slot.retired and not slot.alive()
    assert pool.restarts_used == 1
    assert pool.reap() == []  # a retired slot is reported once


def test_fatal_startup_is_surfaced(make_pool):
    pool = make_pool(args=(True,))
    assert _collect(pool, "fatal")[0] == (
        "fatal", 0, "ValueError: slot 0 cannot load its model")


def test_handler_exception_is_an_error_result_and_the_worker_lives(make_pool):
    pool = make_pool()
    pool.submit(0, "bad", ("raise", "no such domain"))
    pool.submit(0, "good", ("double", 4))
    results = [event[:5] for event in _collect(pool, "result")]
    results += [event[:5] for event in _collect(pool, "result")]
    assert results == [("result", 0, "bad", "error",
                        "RuntimeError: no such domain"),
                       ("result", 0, "good", "ok", 8)]
    assert pool.slots[0].spawns == 1 and pool.reap() == []


def test_ready_handshake_marks_only_the_current_incarnation(make_pool):
    pool = make_pool(size=2)
    deadline = time.monotonic() + 30.0
    while not all(slot.ready for slot in pool.slots):
        assert time.monotonic() < deadline, "workers never reported ready"
        assert pool.receive() is None  # the handshake is consumed silently
    assert [slot.pid for slot in pool.slots] == [
        slot.process.pid for slot in pool.slots]

    stale_pid = pool.slots[1].pid
    pool.kill(1)
    assert _collect(pool, "died")[-1][:2] == ("died", 1)
    slot = pool.slots[1]
    assert not slot.ready and slot.pid != stale_pid
    # A late handshake from the dead incarnation does not mark the new one.
    assert pool._note(("ready", 1, stale_pid)) is None
    assert not slot.ready


def test_kill_is_reported_once_and_the_respawn_serves(make_pool):
    pool = make_pool()
    pool.kill(0)
    events = _collect(pool, "died")
    assert events == [("died", 0, events[0][2], True)]
    assert events[0][2] != 0  # terminated, not a clean exit
    assert pool.reap() == []

    pool.submit(0, "after", ("double", 5))
    assert [event[:5] for event in _collect(pool, "result")] == [
        ("result", 0, "after", "ok", 10)]


def test_shutdown_finishes_queued_jobs_then_exits_cleanly(make_pool):
    pool = make_pool(size=2)
    for slot_id in (0, 1):
        pool.submit(slot_id, slot_id, ("double", slot_id))
    pool.shutdown(timeout_s=30.0)
    assert [slot.process.exitcode for slot in pool.slots] == [0, 0]
    received = []
    deadline = time.monotonic() + 10.0
    while len(received) < 2 and time.monotonic() < deadline:
        message = pool.receive()
        if message is not None:
            received.append(message[:5])
    assert sorted(received) == [("result", 0, 0, "ok", 0),
                                ("result", 1, 1, "ok", 2)]


def test_negative_restart_budget_is_refused():
    with pytest.raises(ValueError, match="max_restarts must be >= 0"):
        SupervisedPool(1, _pool_handlers.setup, max_restarts=-1)
