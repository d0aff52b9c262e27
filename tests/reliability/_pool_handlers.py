"""A tiny pool worker, importable inside spawn workers (no pipeline needed).

``setup(slot_id, fail_setup=False)`` raises when asked to (the ``fatal``
handshake) and otherwise returns :func:`handle`, which takes ``(op, value)``
jobs:

* ``("double", x)`` answers ``("ok", 2 * x)``;
* ``("raise", message)`` raises ``RuntimeError(message)``;
* ``("exit", code)`` ends the worker with ``SystemExit(code)``.

The ``pool_test.job`` fault site fires before every job.
"""

from __future__ import annotations

from repro.reliability.faults import fault_point


def setup(slot_id: int, fail_setup: bool = False):
    if fail_setup:
        raise ValueError(f"slot {slot_id} cannot load its model")
    return handle


def handle(job):
    op, value = job
    fault_point("pool_test.job", op=op)
    if op == "raise":
        raise RuntimeError(value)
    if op == "exit":
        raise SystemExit(value)
    return "ok", 2 * value
