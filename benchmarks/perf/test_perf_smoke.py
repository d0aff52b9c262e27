"""Fast scan- and distillation-kernel smoke checks, wired into the tier-1 flow.

Unlike the ``perf``-marked suites in this directory, these tests are *not*
gated behind ``--run-perf``: they run in the default tier-1 collection (and
match ``pytest benchmarks/perf --run-perf -k "scan or distill"``), so a
kernel regression — functional or a gross slowdown — is caught on every test
run without paying for a full benchmark pass.  Shapes are kept tiny and the
assertions coarse (fused must simply not lose to the composed chains it
replaces); the calibrated numbers live in ``BENCH_engine.json`` via the
``--run-perf`` suites.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import single_blas_thread, time_call

from repro.core import adversarial_debiasing_distillation_loss
from repro.nn import GRU, LSTM, Embedding, lstm_expert_scan
from repro.tensor import (
    Tensor,
    functional as F,
    fused,
    fused_kernels,
    graph_nodes_created,
    no_grad,
)

RNG = np.random.default_rng(11)

BATCH, SEQ, DIM, HIDDEN = 16, 12, 32, 32


def _mask() -> np.ndarray:
    lengths = RNG.integers(SEQ // 2, SEQ + 1, BATCH)
    return (np.arange(SEQ)[None, :] < lengths[:, None]).astype(float)


def _train_pass(encoder, x, mask):
    encoder.zero_grad()
    states, final = encoder(Tensor(x, requires_grad=True), mask=mask)
    ((states * states).mean() + (final * final).mean()).backward()


def _best_alternating(run, rounds: int = 5) -> tuple[float, float]:
    """Best seconds of one ``run`` call with fused kernels (on, off).

    The two settings alternate within every round, so a slow spell of the
    host lands on both sides instead of on whichever one it overlaps.
    """
    best = {True: float("inf"), False: float("inf")}
    for fused_on in (True, False):  # warm-up
        with fused_kernels(fused_on):
            run()
    for _ in range(rounds):
        for fused_on in (True, False):
            with fused_kernels(fused_on):
                best[fused_on] = min(best[fused_on], time_call(run, repeats=1, warmup=0))
    return best[True], best[False]


def test_scan_smoke_fused_not_slower_than_composed():
    """One fused scan node must clearly beat the O(T)-node per-step loop.

    The scan runs 2.2–3.6x faster than the composed loop even at these tiny
    shapes, so the 1.5x allowance below leaves >2x headroom for noisy-CI
    scheduling pauses while still failing if the fused path ever collapses to
    per-step speed.  Both paths are timed under one BLAS thread: only the
    fused scan's GEMMs are large enough for OpenBLAS to thread, and a stalled
    thread pool would otherwise slow that side alone by an order of magnitude.
    """
    x = RNG.standard_normal((BATCH, SEQ, DIM))
    mask = _mask()
    with single_blas_thread():
        for encoder in (GRU(DIM, HIDDEN, bidirectional=True, rng=np.random.default_rng(0)),
                        LSTM(DIM, HIDDEN, bidirectional=True, rng=np.random.default_rng(1))):
            fused_s, composed_s = _best_alternating(lambda: _train_pass(encoder, x, mask))
            assert fused_s < composed_s * 1.5, (
                f"{type(encoder).__name__} scan regressed: fused {fused_s * 1e3:.2f} ms "
                f"vs composed {composed_s * 1e3:.2f} ms")


def test_scan_smoke_single_node_guarantees():
    """Every recurrent pass must stay a single lane_scan graph node."""
    x = Tensor(RNG.standard_normal((4, 6, 5)), requires_grad=True)
    mask = _mask()[:4, :6]
    gru = GRU(5, 3, bidirectional=True, rng=np.random.default_rng(2))
    lstm = LSTM(5, 3, bidirectional=False, rng=np.random.default_rng(3))
    experts = [LSTM(5, 3, rng=np.random.default_rng(4 + i)) for i in range(3)]
    zeros = Tensor(np.zeros((4, 3)))

    before = graph_nodes_created()
    fused.lane_scan("gru", x, (zeros, zeros), None,
                    *_lane_weights(gru.forward_cell, gru.backward_cell),
                    mask=mask, lane_reverse=(False, True))
    assert graph_nodes_created() - before == 1
    before = graph_nodes_created()
    fused.lane_scan("lstm", x, (zeros,), (zeros,), *_lane_weights(lstm.forward_cell),
                    mask=mask)
    assert graph_nodes_created() - before == 1
    before = graph_nodes_created()
    lstm_expert_scan(experts, x, mask=mask)
    assert graph_nodes_created() - before == 1


def _lane_weights(*cells):
    """Per-lane ``(weight_ih, weight_hh, bias)`` lists of ``cells``."""
    return ([cell.weight_ih for cell in cells], [cell.weight_hh for cell in cells],
            [cell.bias for cell in cells])


def test_distill_smoke_add_loss_single_node_and_parity():
    """The fused ADD kernel must stay one node and match the composed chain.

    Exercises ``fused.add_loss`` in every tier-1 run: the composed ADD builds
    ~25 nodes of (batch, batch) intermediates per call, the fused path exactly
    one, with loss and student gradient agreeing to 1e-6.
    """
    student_data = RNG.standard_normal((8, 16))
    teacher = Tensor(RNG.standard_normal((8, 16)))
    results = {}
    for fused_on in (True, False):
        with fused_kernels(fused_on):
            student = Tensor(student_data.copy(), requires_grad=True)
            before = graph_nodes_created()
            loss = adversarial_debiasing_distillation_loss(student, teacher,
                                                           temperature=2.0)
            nodes = graph_nodes_created() - before
            loss.backward()
            results[fused_on] = (loss.item(), student.grad, nodes)
    assert results[True][2] == 1
    assert results[False][2] > 10
    assert abs(results[True][0] - results[False][0]) < 1e-6
    np.testing.assert_allclose(results[True][1], results[False][1], atol=1e-6)


def test_distill_smoke_embedding_single_node_and_parity():
    """The fused embedding lookup must stay one node and match the composed path.

    Duplicate indices check the ``np.add.at`` scatter accumulation; the
    composed ground truth is the generic advanced-indexing node.
    """
    table = Embedding(11, 6, rng=np.random.default_rng(5))
    indices = RNG.integers(0, 11, (4, 7))
    indices[0, 0] = indices[1, 1] = indices[2, 2] = 3
    results = {}
    for fused_on in (True, False):
        with fused_kernels(fused_on):
            table.zero_grad()
            before = graph_nodes_created()
            out = table(indices)
            nodes = graph_nodes_created() - before
            (out * out).sum().backward()
            results[fused_on] = (out.numpy().copy(), table.weight.grad.copy(), nodes)
    assert results[True][2] == results[False][2] == 1
    np.testing.assert_array_equal(results[True][0], results[False][0])
    np.testing.assert_allclose(results[True][1], results[False][1], atol=1e-10)
    with fused_kernels(True), no_grad():
        before = graph_nodes_created()
        F.embedding(table.weight, indices)
        assert graph_nodes_created() == before


def test_scan_smoke_expert_lanes_match_sequential():
    """Quick parity: lane-batched experts equal per-expert sequential scans."""
    x = RNG.standard_normal((3, 5, 4))
    mask = np.ones((3, 5))
    mask[1, 3:] = 0.0
    experts = [LSTM(4, 3, rng=np.random.default_rng(20 + i)) for i in range(3)]
    with fused_kernels(True):
        lanes = lstm_expert_scan(experts, Tensor(x), mask=mask).numpy()
        for n, expert in enumerate(experts):
            states, _ = expert(Tensor(x), mask=mask)
            np.testing.assert_allclose(lanes[:, :, n * 3:(n + 1) * 3],
                                       states.numpy(), atol=1e-10)
