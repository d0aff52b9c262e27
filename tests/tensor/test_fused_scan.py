"""Parity, numerical-gradient and node-count tests for the scan-era kernels.

Covers the N-lane scan (``lane_scan``), the one recurrent kernel behind the
GRU / LSTM encoders (one lane, or forward plus reversed backward lanes) and
the MoSE expert lanes, the fused attention pooling / layer norm, and the
fused ``masked_mean`` / ``mix_experts`` pooling kernels.  Each kernel is
checked against the composed-primitive path (the per-step cell loops / the
primitive chains) in both float64 (1e-6) and float32 (looser, error
accumulates across time steps), including variable-length masked batches,
plus float64 central-difference gradients and the ``no_grad()`` /
O(1)-node-count fast-path guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import GRU, LSTM, AttentionPooling, LayerNorm, lstm_expert_scan
from repro.tensor import (
    Tensor,
    default_dtype,
    functional as F,
    fused,
    fused_kernels,
    graph_nodes_created,
    no_grad,
)

RNG = np.random.default_rng(314)

DTYPES = (np.float64, np.float32)
#: Scan backward replays T steps, so float32 error compounds with sequence
#: length; the tolerances below hold with margin for the shapes used here.
TOLS = {np.float64: dict(atol=1e-6, rtol=1e-5),
        np.float32: dict(atol=5e-4, rtol=5e-3)}


def variable_length_mask(batch: int, seq_len: int) -> np.ndarray:
    """Trailing-padding mask with one full row, short rows and a 1-token row."""
    lengths = [seq_len, max(seq_len // 2, 1), 1][:batch]
    while len(lengths) < batch:
        lengths.append(max(seq_len - len(lengths), 1))
    mask = np.zeros((batch, seq_len))
    for row, length in enumerate(lengths):
        mask[row, :length] = 1.0
    return mask


def run_encoder(encoder, x: np.ndarray, mask, fused_on: bool):
    """Loss + every gradient of one encoder pass on the requested path."""
    with fused_kernels(fused_on):
        encoder.zero_grad()
        xt = Tensor(x.copy(), requires_grad=True)
        states, final = encoder(xt, mask=mask)
        loss = (states * states).mean() + (final * final).sum()
        loss.backward()
        return (loss.item(), states.numpy().copy(), final.numpy().copy(),
                xt.grad.copy(), [p.grad.copy() for p in encoder.parameters()])


def assert_encoder_parity(encoder_cls, dtype, bidirectional, masked):
    batch, seq_len, input_dim, hidden_dim = 3, 6, 5, 4
    with default_dtype(dtype):
        encoder = encoder_cls(input_dim, hidden_dim, bidirectional=bidirectional,
                              rng=np.random.default_rng(7))
        x = np.asarray(RNG.standard_normal((batch, seq_len, input_dim)), dtype=dtype)
        mask = variable_length_mask(batch, seq_len) if masked else None
        fused_res = run_encoder(encoder, x, mask, fused_on=True)
        composed_res = run_encoder(encoder, x, mask, fused_on=False)
    tol = TOLS[dtype]
    assert abs(fused_res[0] - composed_res[0]) <= tol["atol"] * 10
    for got, expected in zip(fused_res[1:4], composed_res[1:4]):
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_allclose(got, expected, **tol)
    for got, expected in zip(fused_res[4], composed_res[4]):
        np.testing.assert_allclose(got, expected, **tol)


# --------------------------------------------------------------------------- #
# Scan vs per-step parity                                                      #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bidirectional", (False, True))
@pytest.mark.parametrize("masked", (False, True))
class TestScanParity:
    def test_gru_scan(self, dtype, bidirectional, masked):
        assert_encoder_parity(GRU, dtype, bidirectional, masked)

    def test_lstm_scan(self, dtype, bidirectional, masked):
        assert_encoder_parity(LSTM, dtype, bidirectional, masked)


class TestScanSemantics:
    def test_masked_final_state_is_last_valid_state(self):
        gru = GRU(4, 3, bidirectional=False, rng=np.random.default_rng(0))
        x = RNG.standard_normal((2, 7, 4))
        mask = np.zeros((2, 7))
        mask[0, :7] = 1.0
        mask[1, :3] = 1.0
        states, final = gru(Tensor(x), mask=mask)
        # Padded positions carry the last valid state forward.
        np.testing.assert_allclose(states.numpy()[1, 3:],
                                   np.broadcast_to(states.numpy()[1, 2], (4, 3)))
        np.testing.assert_allclose(final.numpy()[1], states.numpy()[1, 2])

    @pytest.mark.parametrize("encoder_cls", (GRU, LSTM))
    def test_masked_matches_truncated_sequence(self, encoder_cls):
        """A trailing-padded row must encode exactly like the truncated text."""
        encoder = encoder_cls(4, 3, bidirectional=True, rng=np.random.default_rng(1))
        x = RNG.standard_normal((1, 6, 4))
        valid = 4
        mask = np.zeros((1, 6))
        mask[0, :valid] = 1.0
        _, final_masked = encoder(Tensor(x), mask=mask)
        _, final_truncated = encoder(Tensor(x[:, :valid]))
        np.testing.assert_allclose(final_masked.numpy(), final_truncated.numpy(),
                                   atol=1e-12)

    def test_fully_masked_row_keeps_zero_state(self):
        lstm = LSTM(4, 3, bidirectional=False, rng=np.random.default_rng(2))
        x = RNG.standard_normal((2, 5, 4))
        mask = np.zeros((2, 5))
        mask[0, :] = 1.0  # row 1 is entirely padding
        states, final = lstm(Tensor(x), mask=mask)
        np.testing.assert_allclose(states.numpy()[1], 0.0)
        np.testing.assert_allclose(final.numpy()[1], 0.0)

    def test_mask_shape_mismatch_raises(self):
        gru = GRU(4, 3, rng=np.random.default_rng(3))
        with pytest.raises(ValueError):
            gru(Tensor(RNG.standard_normal((2, 5, 4))), mask=np.ones((2, 4)))


# --------------------------------------------------------------------------- #
# Expert lanes: N recurrences over the same input in one scan node             #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("masked", (False, True))
class TestExpertLaneScan:
    def test_lstm_expert_lanes_match_sequential_experts(self, dtype, masked):
        batch, seq_len, input_dim, hidden_dim, num_experts = 3, 6, 5, 4, 3
        with default_dtype(dtype):
            experts = [LSTM(input_dim, hidden_dim, bidirectional=False,
                            rng=np.random.default_rng(40 + i))
                       for i in range(num_experts)]
            x = np.asarray(RNG.standard_normal((batch, seq_len, input_dim)),
                           dtype=dtype)
            mask = variable_length_mask(batch, seq_len) if masked else None

            def run(fused_on):
                with fused_kernels(fused_on):
                    for expert in experts:
                        expert.zero_grad()
                    xt = Tensor(x.copy(), requires_grad=True)
                    if fused_on:
                        states = lstm_expert_scan(experts, xt, mask=mask)
                    else:
                        states = Tensor.cat(
                            [expert(xt, mask=mask)[0] for expert in experts],
                            axis=2)
                    loss = (states * states).mean()
                    loss.backward()
                    return (loss.item(), states.numpy().copy(), xt.grad.copy(),
                            [p.grad.copy() for expert in experts
                             for p in expert.parameters()])

            fused_res = run(True)
            composed_res = run(False)
        tol = TOLS[dtype]
        assert abs(fused_res[0] - composed_res[0]) <= tol["atol"] * 10
        assert fused_res[1].dtype == composed_res[1].dtype == dtype
        np.testing.assert_allclose(fused_res[1], composed_res[1], **tol)
        np.testing.assert_allclose(fused_res[2], composed_res[2], **tol)
        for got, expected in zip(fused_res[3], composed_res[3]):
            np.testing.assert_allclose(got, expected, **tol)

    def test_expert_scan_is_one_node(self, dtype, masked):
        with default_dtype(dtype):
            experts = [LSTM(4, 3, rng=np.random.default_rng(50 + i))
                       for i in range(4)]
            x = Tensor(np.asarray(RNG.standard_normal((2, 5, 4)), dtype=dtype))
            mask = variable_length_mask(2, 5) if masked else None
            before = graph_nodes_created()
            states = lstm_expert_scan(experts, x, mask=mask)
            assert graph_nodes_created() - before <= 1
            assert states.shape == (2, 5, 4 * 3)
def numerical_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        upper = fn()
        array[index] = original - eps
        lower = fn()
        array[index] = original
        grad[index] = (upper - lower) / (2 * eps)
        iterator.iternext()
    return grad


def assert_numerical(build_loss, *arrays):
    with fused_kernels(True):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss = build_loss(*tensors)
        loss.backward()
        for tensor in tensors:
            def closure(t=tensor):
                fixed = [Tensor(other.data) if other is not t else Tensor(t.data)
                         for other in tensors]
                return build_loss(*fixed).item()

            numeric = numerical_gradient(closure, tensor.data)
            np.testing.assert_allclose(tensor.grad, numeric, atol=1e-6, rtol=1e-4)


class TestScanNumericalGradients:
    @pytest.mark.parametrize("reverse", (False, True))
    def test_gru_scan(self, reverse):
        cell = GRU(3, 2, rng=np.random.default_rng(5)).forward_cell
        x = RNG.standard_normal((2, 3, 3))
        h0 = RNG.standard_normal((2, 2))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        weights = [cell.weight_ih.data.copy(), cell.weight_hh.data.copy(),
                   cell.bias.data.copy()]
        assert_numerical(
            lambda xt, ht, wih, whh, b: (fused.lane_scan(
                "gru", xt, (ht,), None, (wih,), (whh,), (b,), mask=mask,
                lane_reverse=(reverse,)) ** 2).sum(),
            x, h0, *weights)

    @pytest.mark.parametrize("reverse", (False, True))
    def test_lstm_scan(self, reverse):
        cell = LSTM(3, 2, rng=np.random.default_rng(6)).forward_cell
        x = RNG.standard_normal((2, 3, 3))
        h0 = RNG.standard_normal((2, 2))
        c0 = RNG.standard_normal((2, 2))
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        weights = [cell.weight_ih.data.copy(), cell.weight_hh.data.copy(),
                   cell.bias.data.copy()]
        assert_numerical(
            lambda xt, ht, ct, wih, whh, b: (fused.lane_scan(
                "lstm", xt, (ht,), (ct,), (wih,), (whh,), (b,), mask=mask,
                lane_reverse=(reverse,)) ** 2).sum(),
            x, h0, c0, *weights)

    def test_lstm_expert_lanes(self):
        """Two LSTM lanes with opposite directions and a shared mask."""
        cells = [LSTM(3, 2, rng=np.random.default_rng(8 + i)).forward_cell
                 for i in range(2)]
        x = RNG.standard_normal((2, 3, 3))
        h0 = [RNG.standard_normal((2, 2)) for _ in range(2)]
        c0 = [RNG.standard_normal((2, 2)) for _ in range(2)]
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        weights = [a for cell in cells
                   for a in (cell.weight_ih.data.copy(), cell.weight_hh.data.copy(),
                             cell.bias.data.copy())]
        assert_numerical(
            lambda xt, h0a, h0b, c0a, c0b, wa, wha, ba, wb, whb, bb:
            (fused.lane_scan("lstm", xt, (h0a, h0b), (c0a, c0b), (wa, wb),
                             (wha, whb), (ba, bb), mask=mask,
                             lane_reverse=(False, True)) ** 2).sum(),
            x, *h0, *c0, *weights)

    def test_gru_expert_lanes(self):
        """Three GRU lanes (one reversed) over the same masked input."""
        cells = [GRU(3, 2, rng=np.random.default_rng(12 + i)).forward_cell
                 for i in range(3)]
        x = RNG.standard_normal((2, 3, 3))
        h0 = [RNG.standard_normal((2, 2)) for _ in range(3)]
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        weights = [a for cell in cells
                   for a in (cell.weight_ih.data.copy(), cell.weight_hh.data.copy(),
                             cell.bias.data.copy())]
        assert_numerical(
            lambda xt, h0a, h0b, h0c, wa, wha, ba, wb, whb, bb, wc, whc, bc:
            (fused.lane_scan("gru", xt, (h0a, h0b, h0c), None, (wa, wb, wc),
                             (wha, whb, whc), (ba, bb, bc), mask=mask,
                             lane_reverse=(False, True, False)) ** 2).sum(),
            x, *h0, *weights)

    def test_attention_pooling(self):
        x = RNG.standard_normal((2, 4, 3))
        scores = RNG.standard_normal((2, 4))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        assert_numerical(
            lambda xt, st: (fused.attention_pooling(xt, st, mask=mask) ** 2).sum(),
            x, scores)

    def test_masked_mean(self):
        x = RNG.standard_normal((3, 4, 5))
        mask = np.array([[1.0, 1.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0]])
        assert_numerical(
            lambda xt: (fused.masked_mean(xt, mask) ** 2).sum(), x)

    def test_mix_experts(self):
        stacked = RNG.standard_normal((3, 4, 5))
        gate = RNG.standard_normal((3, 4))
        assert_numerical(
            lambda st, gt: (fused.mix_experts(st, gt) ** 2).sum(), stacked, gate)

    def test_layer_norm(self):
        x = RNG.standard_normal((3, 5))
        w = RNG.standard_normal(5) * 0.5 + 1.0
        b = RNG.standard_normal(5) * 0.1
        assert_numerical(
            lambda xt, wt, bt: (fused.layer_norm(xt, wt, bt) ** 2).sum(), x, w, b)


# --------------------------------------------------------------------------- #
# Attention pooling and layer norm parity                                      #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
class TestAttentionLayerNormParity:
    @pytest.mark.parametrize("masked", (False, True))
    def test_attention_pooling(self, dtype, masked):
        with default_dtype(dtype):
            pool = AttentionPooling(5, hidden_dim=3, rng=np.random.default_rng(4))
            x = np.asarray(RNG.standard_normal((3, 6, 5)), dtype=dtype)
            mask = variable_length_mask(3, 6) if masked else None

            def run(fused_on):
                with fused_kernels(fused_on):
                    pool.zero_grad()
                    xt = Tensor(x.copy(), requires_grad=True)
                    out = pool(xt, mask=mask)
                    (out * out).sum().backward()
                    return (out.numpy().copy(), xt.grad.copy(),
                            [p.grad.copy() for p in pool.parameters()])

            fused_out, fused_xg, fused_pg = run(True)
            composed_out, composed_xg, composed_pg = run(False)
        tol = TOLS[dtype]
        assert fused_out.dtype == composed_out.dtype == dtype
        np.testing.assert_allclose(fused_out, composed_out, **tol)
        np.testing.assert_allclose(fused_xg, composed_xg, **tol)
        for got, expected in zip(fused_pg, composed_pg):
            np.testing.assert_allclose(got, expected, **tol)

    def test_layer_norm(self, dtype):
        with default_dtype(dtype):
            norm = LayerNorm(6)
            x = np.asarray(RNG.standard_normal((4, 7, 6)) * 3 + 1, dtype=dtype)

            def run(fused_on):
                with fused_kernels(fused_on):
                    norm.zero_grad()
                    xt = Tensor(x.copy(), requires_grad=True)
                    out = norm(xt)
                    (out * out).mean().backward()
                    return (out.numpy().copy(), xt.grad.copy(),
                            [p.grad.copy() for p in norm.parameters()])

            fused_out, fused_xg, fused_pg = run(True)
            composed_out, composed_xg, composed_pg = run(False)
        tol = TOLS[dtype]
        assert fused_out.dtype == dtype
        np.testing.assert_allclose(fused_out, composed_out, **tol)
        np.testing.assert_allclose(fused_xg, composed_xg, **tol)
        for got, expected in zip(fused_pg, composed_pg):
            np.testing.assert_allclose(got, expected, **tol)


# --------------------------------------------------------------------------- #
# Fused masked mean and expert mixing parity                                   #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
class TestPoolingMixParity:
    def test_masked_mean(self, dtype):
        with default_dtype(dtype):
            x = np.asarray(RNG.standard_normal((4, 6, 5)), dtype=dtype)
            mask = variable_length_mask(4, 6)
            mask[3] = 0.0  # fully-padded row: mean of nothing is zero

            def run(fused_on):
                with fused_kernels(fused_on):
                    xt = Tensor(x.copy(), requires_grad=True)
                    out = F.masked_mean(xt, mask, axis=1)
                    (out * out).sum().backward()
                    return out.numpy().copy(), xt.grad.copy()

            fused_out, fused_grad = run(True)
            composed_out, composed_grad = run(False)
        tol = TOLS[dtype]
        assert fused_out.dtype == composed_out.dtype == dtype
        np.testing.assert_allclose(fused_out, composed_out, **tol)
        np.testing.assert_allclose(fused_grad, composed_grad, **tol)
        np.testing.assert_allclose(fused_out[3], 0.0, atol=tol["atol"])

    def test_mix_experts(self, dtype):
        from repro.models.base import mix_experts

        with default_dtype(dtype):
            expert_data = [np.asarray(RNG.standard_normal((3, 5)), dtype=dtype)
                           for _ in range(4)]
            gate_data = np.asarray(RNG.standard_normal((3, 4)), dtype=dtype)

            def run(fused_on):
                with fused_kernels(fused_on):
                    experts = [Tensor(a.copy(), requires_grad=True)
                               for a in expert_data]
                    gate = Tensor(gate_data.copy(), requires_grad=True)
                    out = mix_experts(experts, gate)
                    (out * out).sum().backward()
                    return (out.numpy().copy(), gate.grad.copy(),
                            [e.grad.copy() for e in experts])

            fused_res = run(True)
            composed_res = run(False)
        tol = TOLS[dtype]
        assert fused_res[0].dtype == composed_res[0].dtype == dtype
        np.testing.assert_allclose(fused_res[0], composed_res[0], **tol)
        np.testing.assert_allclose(fused_res[1], composed_res[1], **tol)
        for got, expected in zip(fused_res[2], composed_res[2]):
            np.testing.assert_allclose(got, expected, **tol)

    def test_single_node_under_grad_and_zero_under_no_grad(self, dtype):
        with default_dtype(dtype):
            x = Tensor(np.asarray(RNG.standard_normal((2, 5, 4)), dtype=dtype),
                       requires_grad=True)
            stacked = Tensor(np.asarray(RNG.standard_normal((2, 3, 4)), dtype=dtype),
                             requires_grad=True)
            gate = Tensor(np.asarray(RNG.standard_normal((2, 3)), dtype=dtype))
            mask = variable_length_mask(2, 5)
            before = graph_nodes_created()
            fused.masked_mean(x, mask)
            fused.mix_experts(stacked, gate)
            assert graph_nodes_created() - before == 2
            before = graph_nodes_created()
            with no_grad():
                fused.masked_mean(x, mask)
                fused.mix_experts(stacked, gate)
            assert graph_nodes_created() == before


# --------------------------------------------------------------------------- #
# Graph-size guarantees                                                        #
# --------------------------------------------------------------------------- #
class TestScanGraphSize:
    @pytest.mark.parametrize("encoder_cls", (GRU, LSTM))
    def test_encoder_forward_is_constant_nodes_in_seq_len(self, encoder_cls):
        def nodes_for(seq_len):
            encoder = encoder_cls(4, 3, bidirectional=True,
                                  rng=np.random.default_rng(0))
            x = Tensor(RNG.standard_normal((2, seq_len, 4)))
            before = graph_nodes_created()
            encoder(x)
            return graph_nodes_created() - before

        short, long = nodes_for(4), nodes_for(32)
        assert short == long  # O(1) in sequence length
        # 2 scan nodes + 2 final-state slices + 2 concatenations.
        assert short <= 8

    def test_scan_kernels_build_zero_nodes_under_no_grad(self):
        gru = GRU(4, 3, bidirectional=True, rng=np.random.default_rng(1))
        lstm = LSTM(4, 3, bidirectional=True, rng=np.random.default_rng(2))
        pool = AttentionPooling(4, hidden_dim=3, rng=np.random.default_rng(3))
        norm = LayerNorm(4)
        x = Tensor(RNG.standard_normal((2, 5, 4)))
        mask = variable_length_mask(2, 5)
        before = graph_nodes_created()
        with no_grad():
            gru(x, mask=mask)
            lstm(x, mask=mask)
            pool(x, mask=mask)
            norm(x)
        assert graph_nodes_created() == before
