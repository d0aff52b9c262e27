"""Reliability-layer overhead benchmarks: fault hooks must be free when off.

``repro.reliability.fault_point`` sits on hot paths (serving encode, trainer
step, artifact reads).  With no plan installed it must compile
down to one global load plus an ``is None`` check, so the chaos harness costs
nothing in production.  The ``perf``-marked benchmark calibrates the per-call
cost and records it into ``BENCH_engine.json``; the unmarked smoke runs in
every tier-1 collection with a coarse bound so a regression (e.g. someone
adding allocation or locking to the disabled path) is caught immediately.

Run the calibrated version with ``pytest benchmarks/perf --run-perf -k
reliability``.
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import record_bench

from repro.reliability import FaultPlan, InjectedFault, fault_point, inject


def _ns_per_call(calls: int) -> float:
    """Average wall-clock nanoseconds per disabled ``fault_point`` call."""
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("bench.site")
    return (time.perf_counter() - start) / calls * 1e9


@pytest.mark.perf
def test_fault_point_disabled_overhead_calibrated():
    """~200k disabled calls must average well under 2µs each."""
    _ns_per_call(10_000)  # warm-up
    best = min(_ns_per_call(200_000) for _ in range(3))
    record_bench("engine", [{
        "name": "reliability/fault_point_disabled_ns",
        "ns_per_call": round(best, 1),
    }])
    print(f"fault_point (disabled): {best:.0f} ns/call")
    assert best < 2_000, f"disabled fault_point costs {best:.0f} ns/call"


def test_fault_point_disabled_overhead_smoke():
    """Tier-1 guard: the disabled hook stays in the sub-microsecond regime.

    The bound is deliberately loose (10µs vs the ~100ns reality) so scheduler
    noise on a loaded CI box never flakes it, while an accidental allocation,
    lock or logging call on the disabled path — each of which costs well over
    10µs amortised — still fails.
    """
    _ns_per_call(1_000)  # warm-up
    best = min(_ns_per_call(20_000) for _ in range(3))
    assert best < 10_000, f"disabled fault_point costs {best:.0f} ns/call"


def test_fault_point_detail_arguments_not_evaluated_lazily():
    """Keyword details are evaluated by the caller; document the contract.

    Hot-path call sites must therefore pass cheap references (the existing
    list of texts, ints) rather than building tuples or arrays per call.  This
    smoke pins the behaviour the benchmark above depends on: with no plan
    installed the call returns immediately and fires nothing, and with a plan
    installed the same site raises.
    """
    fault_point("bench.contract", payload="cheap reference")
    plan = FaultPlan().fail("bench.contract")
    with inject(plan):
        with pytest.raises(InjectedFault):
            fault_point("bench.contract", payload="cheap reference")
    assert plan.fired == 1
    fault_point("bench.contract")  # plan uninstalled again
