"""Recurrent layers: GRU / LSTM cells and (bi-)directional sequence encoders.

The BiGRU baseline, BiGRU-S student, StyleLSTM and MoSE expert networks in the
paper are built from these blocks.  Sequences are ``(batch, seq, features)``;
the encoders return both the per-step hidden states and the final state so
models can choose max/mean pooling or last-state readout.

Every recurrence runs on :func:`repro.tensor.fused.lane_scan`, the engine's
one recurrent kernel: one graph node per encoder pass, each direction (or
expert) a lane, with the input-side gate projections batched into a single
GEMM.  A unidirectional encoder is one lane, a bidirectional one is a
forward and a time-reversed backward lane, and :func:`lstm_expert_scan` runs
N experts over the same input as N lanes (MoSE).  With fusion disabled the
encoders run ``forward_composed``, the per-step loop over the cells'
composed primitive chains: it is the gradient-parity ground truth for the
scan and the baseline for the perf benchmarks.  Both paths accept an
optional 0/1 ``mask`` (``(batch, seq)``): masked positions carry the previous
state through, so padded steps contribute nothing to the states or the
gradients, and the final state of a trailing-padded row is the state at its
last valid token.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, fused, get_default_dtype, init
from repro.nn.module import Module


class GRUCell(Module):
    """Single gated-recurrent-unit step as a chain of primitive ops.

    Gate layout ``[reset, update, new]``; the encoders' scan reads the same
    weights, and this chain is its parity reference.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_ih = init.xavier_uniform((input_dim, 3 * hidden_dim), rng=rng)
        self.weight_hh = init.xavier_uniform((hidden_dim, 3 * hidden_dim), rng=rng)
        self.bias = init.zeros((3 * hidden_dim,))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        gates_x = x @ self.weight_ih + self.bias
        gates_h = hidden @ self.weight_hh
        h = self.hidden_dim
        reset = (gates_x[:, :h] + gates_h[:, :h]).sigmoid()
        update = (gates_x[:, h:2 * h] + gates_h[:, h:2 * h]).sigmoid()
        candidate = (gates_x[:, 2 * h:] + reset * gates_h[:, 2 * h:]).tanh()
        return update * hidden + (1.0 - update) * candidate


class LSTMCell(Module):
    """Single long short-term memory step as a chain of primitive ops.

    Gate layout ``[input, forget, candidate, output]``; returns
    ``(new_hidden, new_cell)``.  The parity reference of the LSTM scan.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight_ih = init.xavier_uniform((input_dim, 4 * hidden_dim), rng=rng)
        self.weight_hh = init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng=rng)
        self.bias = init.zeros((4 * hidden_dim,))

    def forward(self, x: Tensor, hidden: Tensor, cell: Tensor) -> tuple[Tensor, Tensor]:
        gates = x @ self.weight_ih + hidden @ self.weight_hh + self.bias
        h = self.hidden_dim
        input_gate = gates[:, :h].sigmoid()
        forget_gate = gates[:, h:2 * h].sigmoid()
        candidate = gates[:, 2 * h:3 * h].tanh()
        output_gate = gates[:, 3 * h:].sigmoid()
        new_cell = forget_gate * cell + input_gate * candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell


def _zero_state(batch: int, hidden_dim: int, dtype=None) -> Tensor:
    if dtype is None:
        dtype = get_default_dtype()
    return Tensor(np.zeros((batch, hidden_dim), dtype=dtype))


def _scan(kind: str, cells, x: Tensor, mask=None, lane_reverse=None) -> Tensor:
    """One ``lane_scan`` node over ``x`` with one lane per cell, from zero states."""
    batch = x.shape[0]

    def zero_states():
        return [_zero_state(batch, cell.hidden_dim, dtype=cell.weight_ih.data.dtype)
                for cell in cells]

    return fused.lane_scan(
        kind, x, zero_states(), zero_states() if kind == "lstm" else None,
        [cell.weight_ih for cell in cells], [cell.weight_hh for cell in cells],
        [cell.bias for cell in cells], mask=mask, lane_reverse=lane_reverse)


def lstm_expert_scan(experts, x: Tensor, mask=None) -> Tensor:
    """Run N unidirectional LSTM experts over the same input in ONE scan node.

    ``experts`` is a sequence of unidirectional :class:`LSTM` encoders that
    all read ``x`` (``(batch, seq, features)``); each becomes one lane of
    :func:`repro.tensor.fused.lane_scan`, so the whole mixture advances in a
    single time loop (one batched ``(N, B, H) @ (N, H, 4H)`` matmul per step)
    instead of N sequential scans.  Returns the lane-concatenated states
    ``(batch, seq, N * hidden)`` with expert ``n`` in the feature block
    ``[n*H : (n+1)*H]``; with a ``mask``, ``states[:, -1]`` holds each
    expert's state at the row's last valid token (identical semantics to
    calling each expert separately).
    """
    experts = list(experts)
    if any(getattr(e, "bidirectional", False) for e in experts):
        raise ValueError("lstm_expert_scan requires unidirectional experts")
    return _scan("lstm", [e.forward_cell for e in experts], x, mask=mask)


def _masked_step(new_state: Tensor, old_state: Tensor, mask, step: int) -> Tensor:
    """Carry ``old_state`` through positions where ``mask[:, step]`` is 0."""
    if mask is None:
        return new_state
    keep = np.asarray(mask)[:, step].astype(bool)
    return Tensor.where(keep[:, None], new_state, old_state)


class _SequenceEncoder(Module):
    """Uni- or bi-directional recurrent encoder over one cell type.

    On the fused path a pass is one :func:`_scan` node (O(1) graph nodes in
    sequence length); ``forward_composed`` runs the subclass's per-step cell
    loop once per direction and is the scan's ground truth.
    """

    kind: str
    cell_class: type

    def __init__(self, input_dim: int, hidden_dim: int, bidirectional: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.bidirectional = bidirectional
        self.forward_cell = self.cell_class(input_dim, hidden_dim, rng=rng)
        if bidirectional:
            self.backward_cell = self.cell_class(input_dim, hidden_dim, rng=rng)

    @property
    def output_dim(self) -> int:
        return self.hidden_dim * (2 if self.bidirectional else 1)

    def forward(self, x: Tensor, mask=None) -> tuple[Tensor, Tensor]:
        """Return ``(states, final)``: per-step states and the final state."""
        if not fused.is_fused_enabled():
            return self.forward_composed(x, mask=mask)
        if not self.bidirectional:
            states = _scan(self.kind, [self.forward_cell], x, mask=mask)
            return states, states[:, -1, :]
        states = _scan(self.kind, [self.forward_cell, self.backward_cell], x,
                       mask=mask, lane_reverse=(False, True))
        # Forward final: last step of the forward half; backward final: first
        # step of the backward half (mask carry makes both the last *valid*).
        final = Tensor.cat([states[:, -1, :self.hidden_dim],
                            states[:, 0, self.hidden_dim:]], axis=1)
        return states, final

    def forward_composed(self, x: Tensor, mask=None) -> tuple[Tensor, Tensor]:
        seq_len = x.shape[1]
        forward_states = self._step_loop(self.forward_cell, x, mask, range(seq_len))
        if not self.bidirectional:
            return Tensor.stack(forward_states, axis=1), forward_states[-1]
        backward_states = self._step_loop(self.backward_cell, x, mask,
                                          reversed(range(seq_len)))
        backward_states.reverse()
        merged = [Tensor.cat([f, b], axis=1)
                  for f, b in zip(forward_states, backward_states)]
        final = Tensor.cat([forward_states[-1], backward_states[0]], axis=1)
        return Tensor.stack(merged, axis=1), final


class GRU(_SequenceEncoder):
    """Uni- or bi-directional GRU sequence encoder."""

    kind = "gru"
    cell_class = GRUCell

    def _step_loop(self, cell: GRUCell, x: Tensor, mask, steps) -> list[Tensor]:
        """Hidden state after each of ``steps``, in the order they run."""
        state = _zero_state(x.shape[0], self.hidden_dim)
        states = []
        for step in steps:
            state = _masked_step(cell(x[:, step, :], state), state, mask, step)
            states.append(state)
        return states


class LSTM(_SequenceEncoder):
    """Uni- or bi-directional LSTM sequence encoder (hidden states out)."""

    kind = "lstm"
    cell_class = LSTMCell

    def _step_loop(self, cell: LSTMCell, x: Tensor, mask, steps) -> list[Tensor]:
        """Hidden state after each of ``steps``, in the order they run."""
        hidden = _zero_state(x.shape[0], self.hidden_dim)
        memory = _zero_state(x.shape[0], self.hidden_dim)
        states = []
        for step in steps:
            new_hidden, new_memory = cell(x[:, step, :], hidden, memory)
            hidden = _masked_step(new_hidden, hidden, mask, step)
            memory = _masked_step(new_memory, memory, mask, step)
            states.append(hidden)
        return states
