"""Gradient-parity and fast-path regression tests for the fused kernels.

Every fused kernel must produce the same forward value and the same gradients
as the composed-primitive implementation it replaces, in both float64 and
float32, to 1e-6.  The float64 kernels are additionally checked against
central-difference numerical gradients.  Finally, the inference fast path is
pinned down: operations under ``no_grad()`` must build exactly zero graph
nodes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nn import GRUCell, LSTMCell, Linear, TextCNNEncoder
from repro.tensor import (
    Tensor,
    default_dtype,
    functional as F,
    fused,
    fused_kernels,
    get_default_dtype,
    graph_nodes_created,
    no_grad,
    set_default_dtype,
)

RNG = np.random.default_rng(1234)

DTYPES = (np.float64, np.float32)
ATOL = 1e-6


def _grads(build_loss, arrays, fused_on: bool):
    """Loss value + gradients of ``build_loss`` w.r.t. every input array."""
    with fused_kernels(fused_on):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss = build_loss(*tensors)
        loss.backward()
        return loss.item(), [t.grad for t in tensors]


def assert_parity(build_loss, *arrays, dtype=np.float64):
    """Fused and composed paths must agree on the loss and every gradient."""
    arrays = [np.asarray(a, dtype=dtype) for a in arrays]
    with default_dtype(dtype):
        fused_loss, fused_grads = _grads(build_loss, arrays, fused_on=True)
        composed_loss, composed_grads = _grads(build_loss, arrays, fused_on=False)
    assert abs(fused_loss - composed_loss) <= ATOL
    for got, expected in zip(fused_grads, composed_grads):
        assert got is not None and expected is not None
        assert got.dtype == expected.dtype == dtype
        np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)


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
    """Fused autograd gradients must match central differences (float64)."""
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


# --------------------------------------------------------------------------- #
# Parity: fused vs composed, both dtypes                                       #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
class TestFusedComposedParity:
    def test_linear(self, dtype):
        x = RNG.standard_normal((5, 7))
        w = RNG.standard_normal((7, 4)) * 0.5
        b = RNG.standard_normal(4) * 0.1
        assert_parity(lambda xt, wt, bt: (fused.linear(xt, wt, bt) ** 2).sum()
                      if fused.is_fused_enabled()
                      else ((xt @ wt + bt) ** 2).sum(),
                      x, w, b, dtype=dtype)

    def test_linear_3d(self, dtype):
        x = RNG.standard_normal((3, 6, 7))
        w = RNG.standard_normal((7, 4)) * 0.5
        b = RNG.standard_normal(4) * 0.1
        assert_parity(lambda xt, wt, bt: (fused.linear(xt, wt, bt) ** 2).mean()
                      if fused.is_fused_enabled()
                      else ((xt @ wt + bt) ** 2).mean(),
                      x, w, b, dtype=dtype)

    def test_softmax(self, dtype):
        x = RNG.standard_normal((6, 5)) * 3.0
        assert_parity(lambda t: (F.softmax(t, axis=-1) ** 2).sum(), x, dtype=dtype)

    def test_softmax_other_axis(self, dtype):
        x = RNG.standard_normal((4, 6)) * 2.0
        assert_parity(lambda t: (F.softmax(t, axis=0) ** 3).sum(), x, dtype=dtype)

    def test_log_softmax(self, dtype):
        x = RNG.standard_normal((6, 5)) * 3.0
        assert_parity(lambda t: (F.log_softmax(t, axis=-1) ** 2).sum(), x, dtype=dtype)

    def test_cross_entropy(self, dtype):
        logits = RNG.standard_normal((8, 3)) * 2.0
        targets = RNG.integers(0, 3, 8)
        assert_parity(lambda t: F.cross_entropy(t, targets), logits, dtype=dtype)

    def test_cross_entropy_weighted(self, dtype):
        logits = RNG.standard_normal((8, 3)) * 2.0
        targets = RNG.integers(0, 3, 8)
        weights = RNG.random(8) + 0.25
        assert_parity(lambda t: F.cross_entropy(t, targets, weights=weights),
                      logits, dtype=dtype)

    @pytest.mark.parametrize("temperature", (1.0, 4.0))
    def test_distillation_kl(self, dtype, temperature):
        student = RNG.standard_normal((6, 4))
        teacher = np.asarray(RNG.standard_normal((6, 4)), dtype=dtype)
        # The teacher is a constant in both implementations (the composed
        # version detaches it), so parity is checked on the student gradient.
        assert_parity(
            lambda s: F.distillation_kl(s, Tensor(teacher), temperature=temperature),
            student, dtype=dtype)

    @pytest.mark.parametrize("normalize", (True, False))
    def test_add_loss(self, dtype, normalize):
        student = RNG.standard_normal((9, 5))
        teacher = np.asarray(RNG.standard_normal((9, 5)), dtype=dtype)

        def build(s):
            if fused.is_fused_enabled():
                return fused.add_loss(s, Tensor(teacher), temperature=2.0,
                                      normalize=normalize)
            t = Tensor(teacher)
            student_matrix = -F.pairwise_squared_distances(
                F.normalize(s) if normalize else s)
            teacher_matrix = -F.pairwise_squared_distances(
                F.normalize(t) if normalize else t)
            return F.distillation_kl(student_matrix, teacher_matrix, temperature=2.0)

        assert_parity(build, student, dtype=dtype)

    def test_add_loss_no_teacher_grad(self, dtype):
        student = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        teacher = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        with default_dtype(dtype), fused_kernels(True):
            fused.add_loss(student, teacher, temperature=1.5).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_embedding(self, dtype):
        # 2-D indices with duplicates: the scatter backward must accumulate.
        weight = RNG.standard_normal((7, 4))
        indices = RNG.integers(0, 7, (3, 5))
        indices[0, 0] = indices[1, 1] = 2
        assert_parity(lambda wt: (F.embedding(wt, indices) ** 2).sum(),
                      weight, dtype=dtype)

    @pytest.mark.parametrize("temperature", (1.0, 4.0))
    def test_distillation_kl_no_teacher_grad(self, dtype, temperature):
        student = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        teacher = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        with default_dtype(dtype), fused_kernels(True):
            F.distillation_kl(student, teacher, temperature=temperature).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_gru_step(self, dtype):
        """One ``lane_scan`` step from a given state == one composed ``GRUCell`` step."""
        with default_dtype(dtype):
            cell = GRUCell(5, 4, rng=np.random.default_rng(0))
        x = RNG.standard_normal((3, 1, 5))
        h = RNG.standard_normal((3, 4))

        def loss(xt, ht):
            if fused.is_fused_enabled():
                new_h = fused.lane_scan("gru", xt, (ht,), None, (cell.weight_ih,),
                                        (cell.weight_hh,), (cell.bias,))[:, 0]
            else:
                new_h = cell(xt[:, 0], ht)
            return (new_h ** 2).sum()

        arrays = [np.asarray(a, dtype=dtype) for a in (x, h)]
        with default_dtype(dtype):
            fused_loss, fused_grads = _grads(loss, arrays, fused_on=True)
            fused_params = [p.grad.copy() for p in cell.parameters()]
            cell.zero_grad()
            composed_loss, composed_grads = _grads(loss, arrays, fused_on=False)
            composed_params = [p.grad.copy() for p in cell.parameters()]
            cell.zero_grad()
        assert abs(fused_loss - composed_loss) <= ATOL
        for got, expected in zip(fused_grads + fused_params,
                                 composed_grads + composed_params):
            np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)

    @pytest.mark.parametrize("state", ("hidden", "cell", "both"))
    def test_lstm_step(self, dtype, state):
        """One ``lane_scan`` step == one composed ``LSTMCell`` step.

        ``state`` names the initial state that is non-zero, so the hidden
        and the cell paths into the step are each checked on their own.
        """
        with default_dtype(dtype):
            cell_module = LSTMCell(5, 4, rng=np.random.default_rng(0))
        x = RNG.standard_normal((3, 1, 5))
        h = RNG.standard_normal((3, 4))
        c = RNG.standard_normal((3, 4))
        if state == "cell":
            h = np.zeros_like(h)
        if state == "hidden":
            c = np.zeros_like(c)

        def loss(xt, ht, ct):
            if fused.is_fused_enabled():
                new_h = fused.lane_scan(
                    "lstm", xt, (ht,), (ct,), (cell_module.weight_ih,),
                    (cell_module.weight_hh,), (cell_module.bias,))[:, 0]
            else:
                new_h, _ = cell_module(xt[:, 0], ht, ct)
            return (new_h ** 2).sum() + new_h.sum()

        arrays = [np.asarray(a, dtype=dtype) for a in (x, h, c)]
        with default_dtype(dtype):
            fused_loss, fused_grads = _grads(loss, arrays, fused_on=True)
            fused_params = [p.grad.copy() for p in cell_module.parameters()]
            cell_module.zero_grad()
            composed_loss, composed_grads = _grads(loss, arrays, fused_on=False)
            composed_params = [p.grad.copy() for p in cell_module.parameters()]
            cell_module.zero_grad()
        assert abs(fused_loss - composed_loss) <= ATOL
        for got, expected in zip(fused_grads + fused_params,
                                 composed_grads + composed_params):
            np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)

    def test_lstm_sequence_chain(self, dtype):
        """A multi-step scan from non-zero states == chained ``LSTMCell`` steps.

        The cell state threads grads through every step of the chain.
        """
        state_rng = np.random.default_rng(2)
        with default_dtype(dtype):
            cell_module = LSTMCell(3, 4, rng=np.random.default_rng(1))
            inputs = np.asarray(RNG.standard_normal((4, 2, 3)), dtype=dtype)
            h0 = np.asarray(state_rng.standard_normal((2, 4)), dtype=dtype)
            c0 = np.asarray(state_rng.standard_normal((2, 4)), dtype=dtype)

            def run(scan):
                cell_module.zero_grad()
                h, c = Tensor(h0.copy()), Tensor(c0.copy())
                if scan:
                    states = fused.lane_scan(
                        "lstm", Tensor(inputs.transpose(1, 0, 2).copy()), (h,), (c,),
                        (cell_module.weight_ih,), (cell_module.weight_hh,),
                        (cell_module.bias,))
                    loss = (states ** 2).sum()
                else:
                    outs = []
                    for step in range(inputs.shape[0]):
                        h, c = cell_module(Tensor(inputs[step]), h, c)
                        outs.append(h)
                    loss = (Tensor.cat(outs, axis=1) ** 2).sum()
                loss.backward()
                return [loss.item()] + [p.grad.copy() for p in cell_module.parameters()]

            scanned, chained = run(True), run(False)
            assert abs(scanned[0] - chained[0]) <= ATOL
            for got, expected in zip(scanned[1:], chained[1:]):
                np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)

    @pytest.mark.parametrize("kernel_sizes", ((1, 2, 3, 5), (1, 2, 3, 5, 10)))
    def test_textcnn_encoder(self, dtype, kernel_sizes):
        """One ``fused.textcnn`` node == the composed conv/relu/pool/cat chain."""
        with default_dtype(dtype):
            encoder = TextCNNEncoder(6, kernel_sizes=kernel_sizes, channels=5,
                                     rng=np.random.default_rng(0))
        x = np.asarray(RNG.standard_normal((3, 12, 6)), dtype=dtype)

        def run(fused_on):
            with default_dtype(dtype), fused_kernels(fused_on):
                encoder.zero_grad()
                xt = Tensor(x, requires_grad=True)
                out = encoder(xt)
                (out ** 2).sum().backward()
                return out.numpy().copy(), [xt.grad.copy()] + \
                    [p.grad.copy() for p in encoder.parameters()]

        fused_out, fused_grads = run(True)
        composed_out, composed_grads = run(False)
        assert fused_out.dtype == composed_out.dtype == dtype
        np.testing.assert_allclose(fused_out, composed_out, atol=ATOL, rtol=1e-5)
        for got, expected in zip(fused_grads, composed_grads):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)

    def test_textcnn_embedding_input_grad(self, dtype):
        """The input-grad path: gradients reach a trainable embedding table."""
        from repro.data.loader import Batch
        from repro.models.base import ModelConfig
        from repro.models.textcnn import TextCNNWithEmbedding

        with default_dtype(dtype):
            model = TextCNNWithEmbedding(
                ModelConfig(num_domains=2, cnn_channels=4, mlp_hidden=(8,), dropout=0.0),
                vocab_size=20, embed_dim=6)
        token_ids = RNG.integers(1, 20, (4, 12))
        token_ids[:, 9:] = 0  # padding: the conv sees exact ties there
        batch = Batch(token_ids=token_ids, mask=(token_ids > 0).astype(dtype),
                      labels=np.array([0, 1, 1, 0]), domains=np.array([0, 1, 0, 1]),
                      indices=np.arange(4))

        def run(fused_on):
            with default_dtype(dtype), fused_kernels(fused_on):
                model.zero_grad()
                loss, _ = model.compute_loss(batch)
                loss.backward()
                return [p.grad.copy() for p in model.parameters()]

        fused_grads, composed_grads = run(True), run(False)
        assert np.abs(model.embedding.weight.grad).sum() > 0
        for got, expected in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)


class TestTextCNNNode:
    def test_tie_routes_gradient_to_first_winner(self):
        # Column 0 is x itself: row 0 ties at t=1,2, row 1 at t=0,2,3.
        # Column 1 is 10 - x with unique maxima (row 0 at t=0, row 1 at t=1).
        x = Tensor(np.array([[1.0, 3.0, 3.0, 2.0], [5.0, 0.0, 5.0, 5.0]])[:, :, None],
                   requires_grad=True)
        weight = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
        bias = Tensor(np.array([0.0, 10.0]), requires_grad=True)
        out = fused.textcnn(x, [weight], [bias], (1,))
        np.testing.assert_array_equal(out.numpy(), [[3.0, 9.0], [5.0, 10.0]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[:, :, 0], [[-1.0, 1.0, 0.0, 0.0],
                                                         [1.0, -1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(weight.grad, [[3.0 + 5.0, 1.0 + 0.0]])
        np.testing.assert_array_equal(bias.grad, [2.0, 2.0])

    def test_relu_blocks_gradient_of_negative_maxima(self):
        x = Tensor(np.array([[[1.0], [2.0]]]), requires_grad=True)
        weight = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        out = fused.textcnn(x, [weight], [bias], (1,))
        np.testing.assert_array_equal(out.numpy(), [[2.0, 0.0]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[0, :, 0], [0.0, 1.0])
        np.testing.assert_array_equal(bias.grad, [1.0, 0.0])

    def test_single_graph_node(self):
        encoder = TextCNNEncoder(6, kernel_sizes=(1, 2, 3, 5), channels=4,
                                 rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((2, 9, 6)))
        before = graph_nodes_created()
        encoder(x)
        assert graph_nodes_created() - before == 1
        with fused_kernels(False):
            before = graph_nodes_created()
            encoder(x)
            assert graph_nodes_created() - before > 1

    def test_shape_errors_are_readable(self):
        weight = Tensor(RNG.standard_normal((2 * 4, 3)))
        bias = Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="expected 4 input channels, got 5"):
            fused.textcnn(Tensor(np.zeros((1, 6, 5))), [weight], [bias], (2,))
        with pytest.raises(ValueError, match="sequence length 1 shorter than kernel size 2"):
            fused.textcnn(Tensor(np.zeros((1, 1, 4))), [weight], [bias], (2,))


def _expert_encoders(count, dtype, in_dim=6, kernel_sizes=(1, 2, 3, 5), channels=5):
    with default_dtype(dtype):
        return [TextCNNEncoder(in_dim, kernel_sizes=kernel_sizes, channels=channels,
                               rng=np.random.default_rng(seed)) for seed in range(count)]


def _expert_params(encoders):
    return ([[conv.weight for conv in encoder.convolutions] for encoder in encoders],
            [[conv.bias for conv in encoder.convolutions] for encoder in encoders])


@pytest.mark.parametrize("dtype", DTYPES)
class TestTextCNNExperts:
    """``fused.textcnn`` over an expert axis: one node for N encoders."""

    def test_matches_per_expert_composed_chain(self, dtype):
        encoders = _expert_encoders(3, dtype)
        # A ragged batch: rows are zero past their length, so windows wholly
        # inside the padding tie exactly (each equals the bias).
        lengths = np.array([12, 9, 5, 7, 12])
        padded = np.arange(12)[None, :] >= lengths[:, None]
        x = RNG.standard_normal((5, 12, 6))
        x[padded] = 0.0
        x = x.astype(dtype)
        upstream = RNG.standard_normal((5, 3, 20)).astype(dtype)

        def run(fused_on):
            with default_dtype(dtype), fused_kernels(fused_on):
                for encoder in encoders:
                    encoder.zero_grad()
                xt = Tensor(x, requires_grad=True)
                if fused_on:
                    out = fused.textcnn(xt, *_expert_params(encoders),
                                        encoders[0].kernel_sizes)
                else:
                    out = Tensor.stack([encoder(xt) for encoder in encoders], axis=1)
                (out * Tensor(upstream)).sum().backward()
                return out.numpy().copy(), xt.grad.copy(), \
                    [p.grad.copy() for encoder in encoders for p in encoder.parameters()]

        fused_out, fused_dx, fused_grads = run(True)
        composed_out, composed_dx, composed_grads = run(False)
        assert fused_out.shape == (5, 3, 20)
        assert fused_out.dtype == composed_out.dtype == dtype
        np.testing.assert_allclose(fused_out, composed_out, atol=ATOL, rtol=1e-5)
        for got, expected in zip(fused_grads, composed_grads):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, expected, atol=ATOL, rtol=1e-5)
        # Tied padding windows: the node routes to the first winner, the
        # composed max splits evenly.  Both reach only padded positions, so
        # real positions agree exactly and each row's padded total agrees.
        np.testing.assert_allclose(fused_dx[~padded], composed_dx[~padded],
                                   atol=ATOL, rtol=1e-5)
        np.testing.assert_allclose((fused_dx * padded[..., None]).sum(axis=1),
                                   (composed_dx * padded[..., None]).sum(axis=1),
                                   atol=ATOL, rtol=1e-5)

    def test_single_graph_node_and_no_grad(self, dtype):
        encoders = _expert_encoders(4, dtype)
        x = Tensor(RNG.standard_normal((2, 9, 6)).astype(dtype))
        weights, biases = _expert_params(encoders)
        before = graph_nodes_created()
        out = fused.textcnn(x, weights, biases, encoders[0].kernel_sizes)
        assert graph_nodes_created() - before == 1
        with no_grad():
            before = graph_nodes_created()
            inferred = fused.textcnn(x, weights, biases, encoders[0].kernel_sizes)
            assert graph_nodes_created() == before
        np.testing.assert_array_equal(inferred.numpy(), out.numpy())

    @pytest.mark.parametrize("batch_size", (16, 32, 11))
    def test_mdfend_bit_identical_to_per_expert_nodes(self, dtype, batch_size):
        """MDFEND's stacked expert node reproduces its per-expert fused nodes
        bit for bit: logits, features and every parameter gradient."""
        from repro.data.loader import Batch
        from repro.models.base import ModelConfig
        from repro.models.mdfend import MDFEND

        config = ModelConfig(plm_dim=16, num_domains=3, cnn_channels=8)
        with default_dtype(dtype):
            model = MDFEND(config)
        model.eval()
        rng = np.random.default_rng(batch_size)
        lengths = rng.integers(6, 13, batch_size)
        mask = (np.arange(12)[None, :] < lengths[:, None]).astype(dtype)
        plm = (rng.standard_normal((batch_size, 12, 16)) * mask[..., None]).astype(dtype)
        batch = Batch(token_ids=(mask > 0).astype(np.int64), mask=mask,
                      labels=rng.integers(0, 2, batch_size),
                      domains=rng.integers(0, 3, batch_size),
                      indices=np.arange(batch_size), features={"plm": plm})

        def run(stacked):
            with default_dtype(dtype), pytest.MonkeyPatch.context() as patch:
                if not stacked:
                    patch.setattr(model, "_expert_features", lambda sequence: [
                        expert(sequence) for expert in model.experts])
                model.zero_grad()
                logits, features = model.forward_with_features(batch)
                model._criterion(logits, batch.labels).backward()
                return [logits.numpy().copy(), features.numpy().copy()] + \
                    [p.grad.copy() for p in model.parameters()]

        stacked, per_expert = run(True), run(False)
        assert stacked[0].dtype == dtype
        for got, expected in zip(stacked, per_expert):
            assert np.array_equal(got, expected)


def test_textcnn_experts_route_each_cell_to_its_first_winner():
    """Two experts over kernel 1 where only some (row, lane) cells tie: every
    pooled gradient lands on its cell's first maximal time step."""
    # conv[b, t, e, l] = x[b, t] * w[e, l] + bias[e, l].  Expert 0 lane 0 is
    # x (row 0 ties at t=1,2, row 1 at t=0,2,3); expert 1 lane 0 is the
    # constant 1 (every step ties); both lanes 1 have unique maxima.
    x_data = np.array([[1.0, 3.0, 3.0, 2.0], [5.0, 0.0, 5.0, 5.0]])
    w = np.array([[1.0, -1.0], [0.0, -2.0]])
    bias = np.array([[0.0, 10.0], [1.0, 12.0]])
    upstream = np.arange(1.0, 9.0).reshape(2, 2, 2)
    x = Tensor(x_data[:, :, None], requires_grad=True)
    weights = [[Tensor(w[e][None, :], requires_grad=True)] for e in range(2)]
    biases = [[Tensor(bias[e], requires_grad=True)] for e in range(2)]
    out = fused.textcnn(x, weights, biases, (1,))
    out.backward(upstream)

    conv = x_data[:, :, None, None] * w + bias
    first = conv.argmax(axis=1)  # argmax takes the first maximal step
    np.testing.assert_array_equal(first, [[[1, 0], [0, 0]], [[0, 1], [0, 1]]])
    np.testing.assert_array_equal(out.numpy(), conv.max(axis=1))
    d_conv = np.zeros_like(conv)
    rows, experts, lanes = np.indices(first.shape)
    d_conv[rows, first, experts, lanes] = upstream
    np.testing.assert_array_equal(x.grad[:, :, 0], (d_conv * w).sum(axis=(2, 3)))
    for e in range(2):
        np.testing.assert_array_equal(
            weights[e][0].grad[0], (x_data[:, :, None] * d_conv[:, :, e]).sum(axis=(0, 1)))
        np.testing.assert_array_equal(biases[e][0].grad, upstream[:, e].sum(axis=0))


# The SHA-256 of ``fused.textcnn``'s output, input gradient, weight gradients
# and bias gradients (in that order) for each case of ``_digest_case``.
TEXTCNN_DIGESTS = {
    ("student", "float64"):
        "e9e1e3900841dfacbeb78cb675c45735ceafa4892fecb02b4ff5f0223e25e3d9",
    ("student", "float32"):
        "d2ee65eea627e9ca0e3ee87be67cbfd920bb2a6e778e0cb74d83b270da777a8a",
    ("experts", "float64"):
        "aae3eafb4ec316c22e6d756db5e26bbcfdc3f7795c481708fb1ed18e4c004151",
    ("experts", "float32"):
        "fdb392d5c21b45cbb524184d88f4d11eeac2921ad0fb730d7ceb7a0f100a5639",
    ("one_window", "float64"):
        "ab8907b84e0f858b8518ebb310186ebc32630684e86a5f28955c4b5543d27f26",
    ("one_window", "float32"):
        "a0320d2ffb5a0d2fdda29e6251f90afbd8367de9495a5ecdb8b9d9c888b53ca3",
}


def _digest_case(case: str, dtype) -> str:
    """Run one forward and backward of ``fused.textcnn`` and hash the bytes.

    Inputs sit on a dyadic grid (``x`` in steps of 2**-8 within [-1, 1],
    weights in steps of 2**-8 within [-1/4, 1/4], biases and upstream
    gradients in steps of 2**-4), so every product and sum the node forms is
    exact in float32 and the digests hold on any BLAS kernel.  What they pin
    is the node's own bookkeeping: the time step each cell routes to, the
    ReLU gate and the sign of every zero.  Rows are zero past ragged lengths,
    so windows inside the padding tie (each equals the bias).  Lane 0 of
    every kernel is dead on every row and takes negative upstream gradients,
    so its bias gradient is a sum of negative zeros.
    """
    batch, seq_len, channels, width, kernel_sizes, experts = {
        "student": (32, 24, 32, 24, (1, 2, 3, 5), 1),
        "experts": (32, 24, 32, 24, (1, 2, 3, 5), 4),
        "one_window": (5, 5, 3, 4, (1, 5), 1),
    }[case]
    rng = np.random.default_rng(26)
    lengths = rng.integers(3, seq_len + 1, batch)
    x = rng.integers(-256, 257, (batch, seq_len, channels)) / 256
    x[np.arange(seq_len)[None, :] >= lengths[:, None]] = 0.0
    weights = [[rng.integers(-64, 65, (k * channels, width)) / 256 for k in kernel_sizes]
               for _ in range(experts)]
    biases = [[rng.integers(-16, 17, width) / 16 for _ in kernel_sizes]
              for _ in range(experts)]
    for expert_biases in biases:
        for kernel_bias in expert_biases:
            kernel_bias[0] = -64.0
    upstream = rng.integers(-32, 33, (batch, experts, len(kernel_sizes) * width)) / 16
    upstream[:, :, ::width] = -1.0 / 16 - np.abs(upstream[:, :, ::width])
    with default_dtype(dtype):
        xt = Tensor(x, requires_grad=True)
        weights = [[Tensor(w, requires_grad=True) for w in ws] for ws in weights]
        biases = [[Tensor(b, requires_grad=True) for b in bs] for bs in biases]
        if experts == 1:
            out = fused.textcnn(xt, weights[0], biases[0], kernel_sizes)
            upstream = upstream.reshape(batch, -1)
        else:
            out = fused.textcnn(xt, weights, biases, kernel_sizes)
        out.backward(upstream.astype(dtype))
    digest = hashlib.sha256()
    for array in (out.data, xt.grad, *(w.grad for ws in weights for w in ws),
                  *(b.grad for bs in biases for b in bs)):
        assert array.dtype == dtype
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("dtype", DTYPES, ids=("float64", "float32"))
@pytest.mark.parametrize("case", ("student", "experts", "one_window"))
def test_textcnn_digests(case, dtype):
    """``fused.textcnn`` is byte-identical to the recorded kernel, in both
    dtypes, for the student's shape, MDFEND's four experts and a kernel as
    long as the sequence (one window per row)."""
    assert _digest_case(case, dtype) == TEXTCNN_DIGESTS[case, np.dtype(dtype).name]


# --------------------------------------------------------------------------- #
# Numerical gradients of the fused kernels (float64)                           #
# --------------------------------------------------------------------------- #
class TestFusedNumericalGradients:
    def test_linear(self):
        x = RNG.standard_normal((4, 5))
        w = RNG.standard_normal((5, 3)) * 0.5
        b = RNG.standard_normal(3) * 0.1
        assert_numerical(lambda xt, wt, bt: (fused.linear(xt, wt, bt) ** 2).sum(),
                         x, w, b)

    def test_softmax(self):
        x = RNG.standard_normal((4, 5))
        assert_numerical(lambda t: (fused.softmax(t, axis=-1) ** 2).sum(), x)

    def test_log_softmax(self):
        x = RNG.standard_normal((4, 5))
        assert_numerical(lambda t: (fused.log_softmax(t, axis=-1) ** 2).sum(), x)

    def test_cross_entropy(self):
        logits = RNG.standard_normal((6, 3))
        targets = RNG.integers(0, 3, 6)
        assert_numerical(lambda t: fused.cross_entropy(t, targets), logits)

    def test_distillation_kl(self):
        student = RNG.standard_normal((5, 3))
        teacher = RNG.standard_normal((5, 3))
        assert_numerical(
            lambda s: fused.distillation_kl(s, Tensor(teacher), temperature=2.5),
            student)

    def test_gru_step(self):
        """A one-step ``lane_scan`` from a given state (the ``seq_len == 1`` edge)."""
        cell = GRUCell(4, 3, rng=np.random.default_rng(3))
        weights = [cell.weight_ih.data.copy(), cell.weight_hh.data.copy(),
                   cell.bias.data.copy()]
        x = RNG.standard_normal((2, 1, 4))
        h = RNG.standard_normal((2, 3))
        assert_numerical(
            lambda xt, ht, wih, whh, b: (fused.lane_scan(
                "gru", xt, (ht,), None, (wih,), (whh,), (b,)) ** 2).sum(),
            x, h, *weights)

    def test_lstm_step(self):
        """A one-step ``lane_scan`` from given states (the ``seq_len == 1`` edge)."""
        cell = LSTMCell(4, 3, rng=np.random.default_rng(3))
        weights = [cell.weight_ih.data.copy(), cell.weight_hh.data.copy(),
                   cell.bias.data.copy()]
        x = RNG.standard_normal((2, 1, 4))
        h = RNG.standard_normal((2, 3))
        c = RNG.standard_normal((2, 3))

        def loss(xt, ht, ct, wih, whh, b):
            new_h = fused.lane_scan("lstm", xt, (ht,), (ct,), (wih,), (whh,), (b,))
            return (new_h ** 2).sum() + new_h.sum()

        assert_numerical(loss, x, h, c, *weights)

    def test_textcnn(self):
        kernel_sizes = (1, 2, 3)
        x = RNG.standard_normal((2, 6, 3))
        weights = [RNG.standard_normal((k * 3, 4)) * 0.5 for k in kernel_sizes]
        biases = [RNG.standard_normal(4) * 0.1 for _ in kernel_sizes]

        def loss(xt, *params):
            out = fused.textcnn(xt, params[:3], params[3:], kernel_sizes)
            return (out ** 2).sum()

        assert_numerical(loss, x, *weights, *biases)

    def test_textcnn_experts(self):
        kernel_sizes, experts = (1, 2, 3), 3
        x = RNG.standard_normal((2, 6, 3))
        weights = [RNG.standard_normal((k * 3, 4)) * 0.5
                   for _ in range(experts) for k in kernel_sizes]
        biases = [RNG.standard_normal(4) * 0.1 for _ in range(experts * len(kernel_sizes))]

        def loss(xt, *params):
            per_expert = len(kernel_sizes)
            split = experts * per_expert
            nested_weights = [params[e * per_expert:(e + 1) * per_expert]
                              for e in range(experts)]
            nested_biases = [params[split + e * per_expert:split + (e + 1) * per_expert]
                             for e in range(experts)]
            out = fused.textcnn(xt, nested_weights, nested_biases, kernel_sizes)
            return (out ** 2).sum()

        assert_numerical(loss, x, *weights, *biases)

    @pytest.mark.parametrize("normalize", (True, False))
    def test_add_loss(self, normalize):
        student = RNG.standard_normal((6, 4))
        teacher = RNG.standard_normal((6, 4))
        assert_numerical(
            lambda s: fused.add_loss(s, Tensor(teacher), temperature=2.5,
                                     normalize=normalize),
            student)

    def test_embedding(self):
        weight = RNG.standard_normal((6, 3))
        indices = RNG.integers(0, 6, (2, 4))
        indices[0, 0] = indices[1, 2] = 4
        assert_numerical(lambda wt: (fused.embedding(wt, indices) ** 2).sum(),
                         weight)


# --------------------------------------------------------------------------- #
# Inference fast path: no graph construction under no_grad                     #
# --------------------------------------------------------------------------- #
class TestNoGradFastPath:
    def test_primitive_ops_build_zero_nodes(self):
        a = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        before = graph_nodes_created()
        with no_grad():
            out = (a + b) * a - b / (a.abs() + 2.0)
            out = out.relu().tanh().sigmoid().exp().sum()
            _ = a.reshape(20)[3:7].max()
            _ = Tensor.cat([a, b], axis=1).mean(axis=0)
        assert graph_nodes_created() == before
        assert out._backward is None and out._prev == ()

    def test_fused_kernels_build_zero_nodes(self):
        linear = Linear(6, 4, rng=np.random.default_rng(0))
        gru = GRUCell(6, 4, rng=np.random.default_rng(1))
        lstm = LSTMCell(6, 4, rng=np.random.default_rng(2))
        encoder = TextCNNEncoder(6, kernel_sizes=(1, 2), channels=4,
                                 rng=np.random.default_rng(3))
        x2 = Tensor(RNG.standard_normal((3, 6)))
        x3 = Tensor(RNG.standard_normal((3, 5, 6)))
        h = Tensor(RNG.standard_normal((3, 4)))
        c = Tensor(RNG.standard_normal((3, 4)))
        before = graph_nodes_created()
        with no_grad():
            _ = linear(x2)
            _ = gru(x2, h)
            _ = lstm(x2, h, c)
            _ = encoder(x3)
            _ = F.softmax(x2)
            _ = F.cross_entropy(x2[:, :2], np.array([0, 1, 0]))
            _ = F.distillation_kl(x2, x2, temperature=2.0)
            _ = fused.add_loss(x2, x2, temperature=2.0)
            _ = fused.embedding(linear.weight, np.array([[0, 1], [2, 0]]))
        assert graph_nodes_created() == before

    def test_add_loss_and_embedding_are_single_nodes(self):
        """The composed ADD chain is ~25 nodes; the fused kernels are O(1)."""
        student = Tensor(RNG.standard_normal((8, 5)), requires_grad=True)
        teacher = Tensor(RNG.standard_normal((8, 5)))
        before = graph_nodes_created()
        fused.add_loss(student, teacher, temperature=2.0)
        assert graph_nodes_created() - before == 1
        weight = Tensor(RNG.standard_normal((9, 4)), requires_grad=True)
        before = graph_nodes_created()
        fused.embedding(weight, RNG.integers(0, 9, (3, 6)))
        assert graph_nodes_created() - before == 1

    def test_training_still_records_nodes(self):
        linear = Linear(6, 4, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((3, 6)))
        before = graph_nodes_created()
        out = linear(x).sum()
        assert graph_nodes_created() == before + 2  # fused linear + sum
        out.backward()
        assert linear.weight.grad is not None


# --------------------------------------------------------------------------- #
# Dtype policy                                                                 #
# --------------------------------------------------------------------------- #
class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_context_manager_scopes_policy(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0]).dtype == np.float32
            assert Tensor.zeros(3).dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_set_default_dtype_returns_previous(self):
        previous = set_default_dtype("float32")
        try:
            assert previous == np.float64
            assert Tensor(np.arange(3)).dtype == np.float32
        finally:
            set_default_dtype(previous)

    def test_rejects_non_float_dtypes(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_float32_training_end_to_end(self):
        with default_dtype("float32"):
            linear = Linear(6, 2, rng=np.random.default_rng(0))
            x = Tensor(RNG.standard_normal((4, 6)))
            assert x.dtype == np.float32
            loss = F.cross_entropy(linear(x), np.array([0, 1, 0, 1]))
            assert loss.dtype == np.float32
            loss.backward()
            assert linear.weight.grad.dtype == np.float32

    def test_module_astype_round_trip(self):
        gru = GRUCell(4, 3, rng=np.random.default_rng(0))
        gru.astype(np.float32)
        assert all(p.dtype == np.float32 for p in gru.parameters())
        gru.astype(np.float64)
        assert all(p.dtype == np.float64 for p in gru.parameters())

    def test_stable_sigmoid_no_warning_on_extremes(self):
        x = Tensor(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        with np.errstate(over="raise", invalid="raise"):
            out = x.sigmoid()
        np.testing.assert_allclose(out.numpy(), [0.0, 0.0, 0.5, 1.0, 1.0],
                                   atol=1e-20)
