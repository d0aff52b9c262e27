"""Fused autograd kernels: one graph node per composite operation.

The composed implementations in :mod:`repro.tensor.functional` build long
chains of primitive nodes (a single softmax cross-entropy spawns ~8 nodes,
one GRU step ~15).  Each kernel here computes the same forward value with
plain NumPy and registers a *single* node whose backward closure applies the
analytic gradient, which removes almost all graph/closure overhead from the
hot training loops.

Kernel inventory
----------------
``linear``            ``x @ W + b`` with N-d ``x``
``softmax``           stable softmax along an axis
``log_softmax``       stable log-softmax along an axis
``cross_entropy``     softmax cross-entropy on integer targets (opt. weights)
``distillation_kl``   temperature-scaled ``tau^2 KL(teacher || student)``
``add_loss``          the whole ADD loss (Eq. 5–6): normalise -> pairwise
                      distances -> row softmax -> temperature KL in one node
``embedding``         table lookup: gather forward, ``np.add.at`` scatter back
``gru_step``          one fused GRU cell step
``lstm_step``         one fused LSTM cell step (two-node pair ``h``/``c``)
``lane_scan``         the N-lane whole-sequence recurrent scan core
``gru_scan``          whole-sequence GRU scan (single-lane ``lane_scan``)
``lstm_scan``         whole-sequence LSTM scan (single-lane ``lane_scan``)
``attention_pooling`` score -> masked softmax -> weighted sum over time
``masked_mean``       mask-weighted mean over the time axis
``mix_experts``       gate-weighted mixture of stacked expert features
``layer_norm``        layer normalisation over the last axis
``textcnn``           multi-kernel conv -> max over time -> ReLU -> concat

All whole-sequence recurrence routes through :func:`lane_scan` — the single
backward-through-time implementation in the engine.  It consumes
``(batch, seq, features)`` plus per-lane initial states and weight sets,
precomputes the input-side gate projections for every lane in one GEMM, and
runs a single per-step loop over lane-stacked ``(lanes, batch, ·)`` arrays
inside one graph node; the backward pass is one reverse loop over per-step
gate activations stashed during the forward.  An optional 0/1 ``mask``
carries the previous state through padded positions (and skips steps that are
dead for the whole batch).  ``gru_scan`` / ``lstm_scan`` are one-lane
wrappers (their ``reverse=True`` flag scans right-to-left and is exercised by
the parity tests); ``gru_bidir_scan`` / ``lstm_bidir_scan`` run
(forward, backward) lanes; MoSE's mixture of sequential experts runs all N
expert lanes in one scan via ``repro.nn.recurrent.lstm_expert_scan``.

Every kernel is verified against its composed-primitive counterpart by
numerical-gradient parity tests in ``tests/tensor/test_fused.py`` and — for
the scan/attention/layer-norm kernels — ``tests/tensor/test_fused_scan.py``
(both float64 and float32).

The module-level switch :func:`set_fused_enabled` /
:func:`fused_kernels` lets callers (and the perf benchmarks) fall back to the
composed implementations, which is how the before/after numbers in
``PERFORMANCE.md`` are measured.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.tensor.tensor import (
    Tensor,
    _attach,
    _stable_sigmoid,
    _wrap,
    is_grad_enabled,
)

_FUSED_ENABLED = True


def is_fused_enabled() -> bool:
    """Return whether the fused fast path is active."""
    return _FUSED_ENABLED


def set_fused_enabled(enabled: bool) -> bool:
    """Globally enable/disable fused kernels; returns the previous setting."""
    global _FUSED_ENABLED
    previous = _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Context manager that temporarily toggles the fused fast path."""
    previous = set_fused_enabled(enabled)
    try:
        yield
    finally:
        set_fused_enabled(previous)


def _recording(*tensors: Tensor) -> bool:
    if not is_grad_enabled():
        return False
    for tensor in tensors:
        if tensor.requires_grad:
            return True
    return False


# --------------------------------------------------------------------------- #
# Dense projection                                                             #
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``x @ weight + bias`` for ``x`` of shape ``(..., in_features)``."""
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _recording(*parents):
        return _wrap(data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate_grad(grad @ weight.data.T, owned=True)
        if weight.requires_grad:
            if x.data.ndim == 2:
                weight._accumulate_grad(x.data.T @ grad, owned=True)
            else:
                flat_x = x.data.reshape(-1, x.data.shape[-1])
                flat_g = grad.reshape(-1, grad.shape[-1])
                weight._accumulate_grad(flat_x.T @ flat_g, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate_grad(grad.reshape(-1, grad.shape[-1]).sum(axis=0), owned=True)

    return _attach(data, parents, backward)


# --------------------------------------------------------------------------- #
# Softmax family                                                               #
# --------------------------------------------------------------------------- #
def _softmax_data(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def _log_softmax_data(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` as a single graph node."""
    data = _softmax_data(x.data, axis)
    if not _recording(x):
        return _wrap(data)

    def backward(grad):
        inner = (grad * data).sum(axis=axis, keepdims=True)
        x._accumulate_grad(data * (grad - inner), owned=True)

    return _attach(data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` as a single graph node."""
    data = _log_softmax_data(x.data, axis=axis)
    if not _recording(x):
        return _wrap(data)

    def backward(grad):
        probs = np.exp(data)
        x._accumulate_grad(grad - probs * grad.sum(axis=axis, keepdims=True), owned=True)

    return _attach(data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weights: np.ndarray | None = None) -> Tensor:
    """Fused softmax cross-entropy on integer ``targets``.

    Matches ``functional.cross_entropy_reference``: the mean (or
    weight-normalised sum) of per-sample negative log-likelihoods.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D integer array")
    num_classes = logits.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError("label outside [0, num_classes)")
    rows = np.arange(targets.shape[0])

    log_probs = _log_softmax_data(logits.data, axis=-1)
    picked = log_probs[rows, targets]
    if weights is not None:
        sample_weights = np.asarray(weights, dtype=logits.data.dtype)
        coeff = sample_weights / float(np.sum(sample_weights))
        value = -(picked * coeff).sum()
    else:
        coeff = None
        value = -picked.mean()
    data = np.asarray(value, dtype=logits.data.dtype)
    if not _recording(logits):
        return _wrap(data)

    def backward(grad):
        # d loss / d logits = (softmax - onehot) * per-sample coefficient
        d_logits = np.exp(log_probs)
        d_logits[rows, targets] -= 1.0
        if coeff is not None:
            d_logits *= coeff[:, None]
        else:
            d_logits /= targets.shape[0]
        d_logits *= grad  # grad is scalar-shaped
        logits._accumulate_grad(d_logits, owned=True)

    return _attach(data, (logits,), backward)


def distillation_kl(student_logits: Tensor, teacher_logits: Tensor,
                    temperature: float = 1.0) -> Tensor:
    """Fused ``tau^2 * KL(teacher || student)`` at temperature ``tau``.

    The teacher branch is treated as a constant (matching the composed
    implementation, which detaches the teacher), so gradients only flow into
    the student logits.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    tau = float(temperature)
    student_log = _log_softmax_data(student_logits.data / tau)
    teacher_prob = _softmax_data(teacher_logits.data / tau, axis=-1)
    q = np.clip(teacher_prob, 1e-12, None)
    batch = student_logits.data.shape[0] if student_logits.data.ndim > 0 else 1
    value = (tau ** 2) * float((q * (np.log(q) - student_log)).sum()) / float(batch)
    data = np.asarray(value, dtype=student_logits.data.dtype)
    if not _recording(student_logits):
        return _wrap(data)

    def backward(grad):
        # d loss / d student = tau/B * (softmax(student/tau) * sum_j q_j - q)
        student_prob = np.exp(student_log)
        row_mass = q.sum(axis=-1, keepdims=True)
        d_student = (tau / batch) * (student_prob * row_mass - q)
        d_student *= grad
        student_logits._accumulate_grad(d_student, owned=True)

    return _attach(data, (student_logits,), backward)


def _neg_correlation(features: np.ndarray, normalize: bool):
    """Negated sample-correlation matrix ``-relu(||n_i - n_j||^2)`` (Eq. 5).

    Returns ``(matrix, raw, normed, radii)`` where ``raw`` is the un-clamped
    distance matrix (its sign drives the relu subgradient in the backward) and
    ``normed`` / ``radii`` are the L2-normalised features and their norms
    (``radii`` is ``None`` when ``normalize`` is off).
    """
    if normalize:
        radii = np.sqrt((features * features).sum(axis=-1, keepdims=True))
        normed = features / (radii + 1e-12)
    else:
        radii = None
        normed = features
    squared = (normed * normed).sum(axis=1, keepdims=True)
    raw = squared + squared.T - 2.0 * (normed @ normed.T)
    return -np.maximum(raw, 0.0), raw, normed, radii


def add_loss(student_features: Tensor, teacher_features: Tensor,
             temperature: float = 1.0, normalize: bool = True) -> Tensor:
    """Fused adversarial de-biasing distillation loss (Eq. 5–6) in one node.

    Collapses the composed chain — L2-normalise both feature sets, build the
    pairwise squared-distance matrices, soften the negated rows at
    ``temperature`` and match them with the ``tau^2``-scaled KL — whose
    primitive form spawns ~25 graph nodes of ``(batch, batch)`` intermediates
    per call.  ``teacher_features`` is a constant (the composed path detaches
    it), so the single analytic backward only flows into the student
    features.  The relu clamp on numerical-noise negatives is preserved,
    including its subgradient (zero where the raw distance is non-positive).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    tau = float(temperature)
    student = student_features.data
    batch = student.shape[0]
    student_matrix, raw, normed, radii = _neg_correlation(student, normalize)
    teacher_matrix, _, _, _ = _neg_correlation(teacher_features.data, normalize)
    student_log = _log_softmax_data(student_matrix / tau)
    q = np.clip(_softmax_data(teacher_matrix / tau, axis=-1), 1e-12, None)
    value = (tau ** 2) * float((q * (np.log(q) - student_log)).sum()) / float(batch)
    data = np.asarray(value, dtype=student.dtype)
    if not _recording(student_features):
        return _wrap(data)

    def backward(grad):
        # KL -> student matrix (same rule as the fused distillation_kl)...
        probs = np.exp(student_log)
        row_mass = q.sum(axis=-1, keepdims=True)
        d_matrix = (tau / batch) * (probs * row_mass - q)
        d_matrix *= grad
        # ... -> distances (negation + relu subgradient) ...
        np.negative(d_matrix, out=d_matrix)
        d_matrix *= raw > 0.0
        # ... -> normalised features: D_ij = |n_i|^2 + |n_j|^2 - 2 n_i.n_j.
        sym = d_matrix + d_matrix.T
        d_normed = 2.0 * (sym.sum(axis=1, keepdims=True) * normed - sym @ normed)
        if normalize:
            # n = f / (r + eps) with r = |f|: the correction term routes the
            # gradient of the norm back through the raw features.
            scale = 1.0 / (radii + 1e-12)
            inner = (d_normed * student).sum(axis=1, keepdims=True)
            d_features = d_normed * scale - student * (inner * scale * scale / radii)
        else:
            d_features = d_normed
        student_features._accumulate_grad(d_features, owned=True)

    return _attach(data, (student_features,), backward)


# --------------------------------------------------------------------------- #
# Embedding lookup                                                             #
# --------------------------------------------------------------------------- #
def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Fused table lookup: rows of ``weight`` for integer ``indices`` (any shape).

    The forward is the plain NumPy gather; the backward scatters the incoming
    gradient back into a zeroed table with a single flat ``np.add.at`` call
    (duplicate indices accumulate), instead of routing through the generic
    ``Tensor.__getitem__`` advanced-indexing node.
    """
    indices = np.asarray(indices, dtype=np.int64)
    data = weight.data[indices]
    if not _recording(weight):
        return _wrap(data)
    flat = indices.reshape(-1)

    def backward(grad):
        full = np.zeros_like(weight.data)
        np.add.at(full, flat, grad.reshape(flat.shape[0], *weight.data.shape[1:]))
        weight._accumulate_grad(full, owned=True)

    return _attach(data, (weight,), backward)


# --------------------------------------------------------------------------- #
# Recurrent cell steps                                                         #
# --------------------------------------------------------------------------- #
def gru_step(x: Tensor, hidden: Tensor, weight_ih: Tensor, weight_hh: Tensor,
             bias: Tensor) -> Tensor:
    """One fused GRU step; mirrors ``GRUCell`` layout ``[reset, update, new]``."""
    h = hidden.data.shape[-1]
    gates_x = x.data @ weight_ih.data + bias.data
    gates_h = hidden.data @ weight_hh.data
    reset = _stable_sigmoid(gates_x[:, :h] + gates_h[:, :h])
    update = _stable_sigmoid(gates_x[:, h:2 * h] + gates_h[:, h:2 * h])
    gh_new = gates_h[:, 2 * h:]
    candidate = np.tanh(gates_x[:, 2 * h:] + reset * gh_new)
    data = update * hidden.data + (1.0 - update) * candidate
    parents = (x, hidden, weight_ih, weight_hh, bias)
    if not _recording(*parents):
        return _wrap(data)

    def backward(grad):
        d_update = grad * (hidden.data - candidate) * update * (1.0 - update)
        d_candidate = grad * (1.0 - update) * (1.0 - candidate ** 2)
        d_reset = d_candidate * gh_new * reset * (1.0 - reset)
        d_gates_x = np.concatenate([d_reset, d_update, d_candidate], axis=1)
        d_gates_h = np.concatenate([d_reset, d_update, d_candidate * reset], axis=1)
        if x.requires_grad:
            x._accumulate_grad(d_gates_x @ weight_ih.data.T, owned=True)
        if hidden.requires_grad:
            hidden._accumulate_grad(grad * update + d_gates_h @ weight_hh.data.T,
                                    owned=True)
        if weight_ih.requires_grad:
            weight_ih._accumulate_grad(x.data.T @ d_gates_x, owned=True)
        if weight_hh.requires_grad:
            weight_hh._accumulate_grad(hidden.data.T @ d_gates_h, owned=True)
        if bias.requires_grad:
            bias._accumulate_grad(d_gates_x.sum(axis=0), owned=True)

    return _attach(data, parents, backward)


def lstm_step(x: Tensor, hidden: Tensor, cell: Tensor, weight_ih: Tensor,
              weight_hh: Tensor, bias: Tensor) -> tuple[Tensor, Tensor]:
    """One fused LSTM step; gate layout ``[input, forget, candidate, output]``.

    Returns ``(new_hidden, new_cell)`` as a pair of graph nodes: ``new_cell``
    owns the gradient flow into the gates that write the cell state, and
    ``new_hidden`` (whose parents include ``new_cell``) owns the output-gate
    path plus the ``tanh`` read-out of the new cell state.
    """
    h = hidden.data.shape[-1]
    gates = x.data @ weight_ih.data + hidden.data @ weight_hh.data + bias.data
    input_gate = _stable_sigmoid(gates[:, :h])
    forget_gate = _stable_sigmoid(gates[:, h:2 * h])
    candidate = np.tanh(gates[:, 2 * h:3 * h])
    output_gate = _stable_sigmoid(gates[:, 3 * h:])
    new_cell_data = forget_gate * cell.data + input_gate * candidate
    tanh_cell = np.tanh(new_cell_data)
    new_hidden_data = output_gate * tanh_cell

    cell_parents = (x, hidden, cell, weight_ih, weight_hh, bias)
    if not _recording(*cell_parents):
        return _wrap(new_hidden_data), _wrap(new_cell_data)

    # The output-gate gradient is produced by the ``new_hidden`` node but the
    # matmuls into x / hidden / the weights are done exactly once, by the
    # ``new_cell`` node (topologically guaranteed to run after ``new_hidden``),
    # so the fused step performs the same number of matmuls as the composed
    # chain while collapsing ~15 graph nodes into 2.
    pending_output = [None]

    def cell_backward(grad_cell):
        d_input = grad_cell * candidate * input_gate * (1.0 - input_gate)
        d_forget = grad_cell * cell.data * forget_gate * (1.0 - forget_gate)
        d_candidate = grad_cell * input_gate * (1.0 - candidate ** 2)
        d_output = pending_output[0]
        pending_output[0] = None
        if d_output is None:
            d_output = np.zeros_like(d_input)
        d_gates = np.concatenate([d_input, d_forget, d_candidate, d_output], axis=1)
        if x.requires_grad:
            x._accumulate_grad(d_gates @ weight_ih.data.T, owned=True)
        if hidden.requires_grad:
            hidden._accumulate_grad(d_gates @ weight_hh.data.T, owned=True)
        if weight_ih.requires_grad:
            weight_ih._accumulate_grad(x.data.T @ d_gates, owned=True)
        if weight_hh.requires_grad:
            weight_hh._accumulate_grad(hidden.data.T @ d_gates, owned=True)
        if bias.requires_grad:
            bias._accumulate_grad(d_gates.sum(axis=0), owned=True)
        if cell.requires_grad:
            cell._accumulate_grad(grad_cell * forget_gate, owned=True)

    new_cell = _attach(new_cell_data, cell_parents, cell_backward)

    def hidden_backward(grad_hidden):
        d_output = grad_hidden * tanh_cell * output_gate * (1.0 - output_gate)
        if pending_output[0] is None:
            pending_output[0] = d_output
        else:
            pending_output[0] += d_output
        new_cell._accumulate_grad(grad_hidden * output_gate * (1.0 - tanh_cell ** 2),
                                  owned=True)

    new_hidden = _attach(new_hidden_data, (new_cell,), hidden_backward)
    return new_hidden, new_cell


# --------------------------------------------------------------------------- #
# Whole-sequence recurrent scans: the N-lane core                              #
# --------------------------------------------------------------------------- #
# There is exactly ONE backward-through-time implementation in this module:
# :func:`lane_scan`.  It runs a single time loop over lane-stacked
# ``(lanes, batch, ·)`` arrays, parameterised by cell type (GRU or LSTM gate
# math share the stash layout, mask carry, dead-step skip and the analytic
# backward).  A *lane* is one independent recurrence reading the same input
# sequence with its own weight set:
#
# * one lane                 -> ``gru_scan`` / ``lstm_scan``
# * (forward, backward) lanes -> ``gru_bidir_scan`` / ``lstm_bidir_scan``
#   (the backward lane consumes time right-to-left via pre-flipped inputs)
# * (expert_0 .. expert_{N-1}) lanes -> MoSE's mixture of sequential experts,
#   all N experts advancing inside one loop instead of N sequential scans.
#
# The four public scan kernels below are thin wrappers that adapt their
# historical signatures onto the core; MoSE dispatches through
# ``repro.nn.recurrent.lstm_expert_scan``.
#
# Implementation notes:
#
# * All sequence-shaped internals are *time-major* — stash arrays are indexed
#   ``stash[t]`` so every per-step read/write touches a contiguous block.  The
#   (batch, seq, ...) public layout is produced/consumed via one bulk
#   transpose at the node boundary.  (With batch-major stashes every per-step
#   ufunc ran on a strided view, which profiling showed cost ~2x.)
# * Reversed lanes flip their inputs once up front and their outputs once at
#   the end, so the loop itself always runs ``t = 0..T-1`` over contiguous
#   memory.
# * Gate activations are computed straight into the backward stash (or into
#   scratch when not recording) with in-place ufuncs, so no step allocates.
#   Per step, all lanes share one batched ``(N, B, H) @ (N, H, G*H)`` matmul
#   and one ufunc call per gate.  At the paper's sizes the loops are bound by
#   the gate transcendentals, not by Python calls: one float64 ``np.tanh``
#   over (2, 32, 72) gates costs 11.6 µs against 7.5 µs for that step's
#   matmul, and stacking more lanes saves nothing (a GRU forward + backward
#   at T=24, H=24, batch 32 takes 5.8 ms with 2 lanes and 21.3 ms with 8;
#   OpenBLAS on one thread, NumPy 2.4, 2-core Xeon).


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Overflow-free logistic via ``0.5 * tanh(x / 2) + 0.5``, written into ``out``.

    ``tanh`` saturates instead of overflowing, so this matches
    :func:`_stable_sigmoid` to a couple of ulps while costing four in-place
    ufunc calls and zero temporaries.
    """
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _prepare_scan_mask(mask, batch: int, seq_len: int, dtype):
    """Normalise an optional 0/1 mask to time-major ``(mask_tm, alive)``.

    ``mask_tm`` is ``(seq, batch, 1)`` in the compute dtype (for blending the
    carried state), ``alive[t]`` is False when step ``t`` is padding for the
    *entire* batch, in which case the scan skips its recurrence GEMM outright.
    """
    if mask is None:
        return None, None
    mask_arr = np.asarray(mask, dtype=dtype)
    if mask_arr.shape != (batch, seq_len):
        raise ValueError(
            f"mask shape {mask_arr.shape} does not match (batch, seq) = "
            f"({batch}, {seq_len})")
    mask_tm = np.ascontiguousarray(mask_arr.T)[..., None]
    return mask_tm, mask_arr.sum(axis=0) > 0


def lane_scan(cell: str, x: Tensor, h0, c0, weight_ih, weight_hh, bias,
              mask=None, lane_reverse=None) -> Tensor:
    """N-lane whole-sequence recurrent scan — the single BPTT core.

    ``cell`` is ``"gru"`` or ``"lstm"``.  ``x`` is the shared input
    ``(batch, seq, features)``; ``h0`` (and ``c0`` for LSTM) are per-lane
    initial states ``(batch, hidden)``; ``weight_ih`` / ``weight_hh`` /
    ``bias`` are per-lane weight sets with the cells' gate layouts
    (``[reset, update, new]`` for GRU, ``[input, forget, candidate, output]``
    for LSTM).  ``lane_reverse[n]`` scans lane ``n`` right-to-left (inputs are
    flipped once up front, outputs flipped back once at the end, so the loop
    itself always runs ``t = 0..T-1`` over contiguous memory).  ``mask``
    (0/1, ``(batch, seq)``) is shared by all lanes and carries the previous
    state through padded positions; steps that are padding for every row in
    *every* lane skip their recurrence GEMM outright.

    Returns one graph node of shape ``(batch, seq, num_lanes * hidden)`` with
    lane ``n`` occupying the feature block ``[n*H : (n+1)*H]``;
    ``states[:, t]`` holds each lane's state *after* consuming ``x[:, t]`` in
    that lane's scan order.  The input-side gate projections of all lanes run
    as one up-front GEMM against the lane-concatenated ``weight_ih``; per step
    the hidden-side projections are one batched ``(N, B, H) @ (N, H, G*H)``
    matmul.  The backward is the same loop in reverse over per-step gate
    activations stashed during the forward, with the weight gradients
    accumulated by whole-sequence GEMMs at the end.
    """
    if cell not in ("gru", "lstm"):
        raise ValueError(f"unknown cell type '{cell}' (use 'gru' or 'lstm')")
    is_lstm = cell == "lstm"
    num_gates = 4 if is_lstm else 3
    h0 = tuple(h0)
    c0 = tuple(c0) if is_lstm else ()
    weight_ih, weight_hh, bias = tuple(weight_ih), tuple(weight_hh), tuple(bias)
    num_lanes = len(weight_ih)
    if not (len(weight_hh) == len(bias) == len(h0) == num_lanes) or \
            (is_lstm and len(c0) != num_lanes):
        raise ValueError("per-lane argument lists must all have the same length")
    if lane_reverse is None:
        lane_reverse = (False,) * num_lanes
    lane_reverse = tuple(bool(r) for r in lane_reverse)
    if len(lane_reverse) != num_lanes:
        raise ValueError("lane_reverse must have one entry per lane")

    batch, seq_len, _ = x.data.shape
    if seq_len == 0:
        raise ValueError("lane_scan requires at least one time step")
    hidden_dim = h0[0].data.shape[-1]
    gw = num_gates * hidden_dim
    dtype = x.data.dtype

    # Input-side projections for every lane in one GEMM against the
    # lane-concatenated weights, then to time-major lane-stacked layout
    # (reversed lanes read time flipped so one loop advances all lanes).
    wih_cat = np.concatenate([w.data for w in weight_ih], axis=1)  # (F, N*G*H)
    bias_cat = np.concatenate([b.data for b in bias])
    gates_all = x.data.reshape(batch * seq_len, -1) @ wih_cat + bias_cat
    lanes_bm = gates_all.reshape(batch, seq_len, num_lanes, gw)
    gates_tm = np.empty((seq_len, num_lanes, batch, gw), dtype=dtype)
    for n, rev in enumerate(lane_reverse):
        src = lanes_bm[:, ::-1, n] if rev else lanes_bm[:, :, n]
        gates_tm[:, n] = src.transpose(1, 0, 2)

    mask_tm, alive = _prepare_scan_mask(mask, batch, seq_len, dtype)
    if mask_tm is not None:
        if any(lane_reverse):
            lane_mask = np.empty((seq_len, num_lanes, batch, 1), dtype=dtype)
            alive_ln = np.empty((seq_len, num_lanes), dtype=bool)
            for n, rev in enumerate(lane_reverse):
                lane_mask[:, n] = mask_tm[::-1] if rev else mask_tm
                alive_ln[:, n] = alive[::-1] if rev else alive
            # Skip a step only when it is padding for every row in every lane.
            all_dead = ~alive_ln.any(axis=1)
        else:
            lane_mask = mask_tm[:, None]  # broadcast view over the lane axis
            all_dead = ~alive
    else:
        lane_mask = None
        all_dead = None

    w_hh = np.stack([w.data for w in weight_hh])  # (N, H, G*H)
    parents = (x, *h0, *c0, *weight_ih, *weight_hh, *bias)
    recording = _recording(*parents)

    lane_states = np.empty((seq_len, num_lanes, batch, hidden_dim), dtype=dtype)
    if recording:
        # Zero-filled when some steps are dead across the whole batch: those
        # steps never write their stash slots, and zeros keep the vectorised
        # backward prefactors and the whole-sequence weight GEMMs garbage-free.
        alloc = np.zeros if all_dead is not None and all_dead.any() else np.empty
        prev_h = alloc(lane_states.shape, dtype=dtype)
        if is_lstm:
            prev_c = alloc(lane_states.shape, dtype=dtype)
            gate_if = alloc((seq_len, num_lanes, batch, 2 * hidden_dim), dtype=dtype)
            cand_gates = alloc(lane_states.shape, dtype=dtype)
            out_gates = alloc(lane_states.shape, dtype=dtype)
            tanh_cells = alloc(lane_states.shape, dtype=dtype)
        else:
            gate_rz = alloc((seq_len, num_lanes, batch, 2 * hidden_dim), dtype=dtype)
            candidates = alloc(lane_states.shape, dtype=dtype)
            gh_news = alloc(lane_states.shape, dtype=dtype)

    h = np.stack([t.data for t in h0])  # (N, B, H)
    c = np.stack([t.data for t in c0]) if is_lstm else None
    gh = np.empty((num_lanes, batch, gw), dtype=dtype)
    # The ONE forward time loop: every op below touches all lanes at once.
    for t in range(seq_len):
        if all_dead is not None and all_dead[t]:
            lane_states[t] = h
            continue
        gx = gates_tm[t]
        np.matmul(h, w_hh, out=gh)  # (N, B, G*H)
        if is_lstm:
            gh += gx
            # One sigmoid call covers the adjacent [input, forget] blocks; all
            # activations land straight in the backward stash when recording.
            if recording:
                prev_h[t] = h
                prev_c[t] = c
                in_forget = _sigmoid_into(gh[:, :, :2 * hidden_dim], gate_if[t])
                candidate = np.tanh(gh[:, :, 2 * hidden_dim:3 * hidden_dim],
                                    out=cand_gates[t])
                output_gate = _sigmoid_into(gh[:, :, 3 * hidden_dim:], out_gates[t])
                tanh_cell = tanh_cells[t]
            else:
                in_forget = _sigmoid_into(gh[:, :, :2 * hidden_dim],
                                          gh[:, :, :2 * hidden_dim])
                candidate = np.tanh(gh[:, :, 2 * hidden_dim:3 * hidden_dim])
                output_gate = _sigmoid_into(gh[:, :, 3 * hidden_dim:],
                                            gh[:, :, 3 * hidden_dim:])
                tanh_cell = np.empty((num_lanes, batch, hidden_dim), dtype=dtype)
            new_c = in_forget[:, :, hidden_dim:] * c
            new_c += in_forget[:, :, :hidden_dim] * candidate
            np.tanh(new_c, out=tanh_cell)
            new_h = output_gate * tanh_cell
        else:
            # One sigmoid call covers the adjacent [reset, update] blocks; the
            # candidate's hidden-side projection stays un-added (it is scaled
            # by the reset gate before joining the input side).
            rz_pre = gh[:, :, :2 * hidden_dim]
            rz_pre += gx[:, :, :2 * hidden_dim]
            if recording:
                prev_h[t] = h
                rz = _sigmoid_into(rz_pre, gate_rz[t])
                gh_new = gh_news[t]
                gh_new[...] = gh[:, :, 2 * hidden_dim:]
                candidate = candidates[t]
            else:
                rz = _sigmoid_into(rz_pre, rz_pre)
                gh_new = gh[:, :, 2 * hidden_dim:]
                candidate = np.empty((num_lanes, batch, hidden_dim), dtype=dtype)
            np.multiply(rz[:, :, :hidden_dim], gh_new, out=candidate)
            candidate += gx[:, :, 2 * hidden_dim:]
            np.tanh(candidate, out=candidate)
            new_h = h - candidate
            new_h *= rz[:, :, hidden_dim:]
            new_h += candidate
        if lane_mask is not None:
            # h + m * (new_h - h), composed in place on the fresh arrays.
            m = lane_mask[t]
            new_h -= h
            new_h *= m
            new_h += h
            if is_lstm:
                new_c -= c
                new_c *= m
                new_c += c
        lane_states[t] = new_h
        h = new_h
        if is_lstm:
            c = new_c

    states = np.empty((batch, seq_len, num_lanes * hidden_dim), dtype=dtype)
    for n, rev in enumerate(lane_reverse):
        src = lane_states[::-1, n] if rev else lane_states[:, n]
        states[:, :, n * hidden_dim:(n + 1) * hidden_dim] = src.transpose(1, 0, 2)
    if not recording:
        return _wrap(states)

    def backward(grad):
        lane_grad = np.empty((seq_len, num_lanes, batch, hidden_dim), dtype=dtype)
        for n, rev in enumerate(lane_reverse):
            time = slice(None, None, -1) if rev else slice(None)
            block = grad[:, time, n * hidden_dim:(n + 1) * hidden_dim]
            lane_grad[:, n] = block.transpose(1, 0, 2)
        # Gate-derivative prefactors, vectorised over the whole sequence so
        # the sequential loop below is down to a handful of ufunc calls plus
        # one batched GEMM per step.
        if is_lstm:
            in_gates = gate_if[:, :, :, :hidden_dim]
            forget_gates = gate_if[:, :, :, hidden_dim:]
            pref_out = tanh_cells * out_gates * (1.0 - out_gates)
            pref_cell = out_gates * (1.0 - tanh_cells ** 2)
            pref_in = cand_gates * in_gates * (1.0 - in_gates)
            pref_forget = prev_c * forget_gates * (1.0 - forget_gates)
            pref_cand = in_gates * (1.0 - cand_gates ** 2)
        else:
            resets = gate_rz[:, :, :, :hidden_dim]
            updates = gate_rz[:, :, :, hidden_dim:]
            pref_update = (prev_h - candidates) * updates * (1.0 - updates)
            pref_cand = (1.0 - updates) * (1.0 - candidates ** 2)
            pref_reset = gh_news * resets * (1.0 - resets)
            # gates_h and gates_x share the [reset, update] gradient blocks;
            # only the candidate block differs (extra * reset, hidden side).
            d_cands = np.zeros((seq_len, num_lanes, batch, hidden_dim), dtype=dtype)
        d_gates = np.zeros((seq_len, num_lanes, batch, gw), dtype=dtype)
        d_h = np.zeros((num_lanes, batch, hidden_dim), dtype=dtype)
        d_c = np.zeros_like(d_h) if is_lstm else None
        w_hh_t = np.swapaxes(w_hh, 1, 2)
        # The ONE backward time loop (BPTT), shared by every kernel above.
        for t in range(seq_len - 1, -1, -1):
            g = lane_grad[t] + d_h
            if all_dead is not None and all_dead[t]:
                d_h = g  # dead step: pure passthrough to the previous state
                continue
            if lane_mask is not None:
                m = lane_mask[t]
                g_active = g * m
                g_pass = g - g_active
                if is_lstm:
                    dc_active = d_c * m
                    dc_pass = d_c - dc_active
            else:
                g_active, g_pass = g, None
                if is_lstm:
                    dc_active, dc_pass = d_c, None
            step = d_gates[t]
            if is_lstm:
                d_cell = dc_active + g_active * pref_cell[t]
                np.multiply(d_cell, pref_in[t], out=step[:, :, :hidden_dim])
                np.multiply(d_cell, pref_forget[t],
                            out=step[:, :, hidden_dim:2 * hidden_dim])
                np.multiply(d_cell, pref_cand[t],
                            out=step[:, :, 2 * hidden_dim:3 * hidden_dim])
                np.multiply(g_active, pref_out[t], out=step[:, :, 3 * hidden_dim:])
                d_h = np.matmul(step, w_hh_t)
                if g_pass is not None:
                    d_h += g_pass
                d_c = d_cell * forget_gates[t]
                if lane_mask is not None and dc_pass is not None:
                    d_c += dc_pass
            else:
                d_candidate = d_cands[t]
                np.multiply(g_active, pref_cand[t], out=d_candidate)
                np.multiply(d_candidate, pref_reset[t], out=step[:, :, :hidden_dim])
                np.multiply(g_active, pref_update[t],
                            out=step[:, :, hidden_dim:2 * hidden_dim])
                np.multiply(d_candidate, resets[t], out=step[:, :, 2 * hidden_dim:])
                d_h = np.matmul(step, w_hh_t)
                d_h += g_active * updates[t]
                if g_pass is not None:
                    d_h += g_pass
        # Back to (batch, time)-major real order, lanes side by side.
        d_gx = np.empty((batch, seq_len, num_lanes * gw), dtype=dtype)
        for n, rev in enumerate(lane_reverse):
            time = slice(None, None, -1) if rev else slice(None)
            lane_block = d_gx[:, :, n * gw:(n + 1) * gw]
            if is_lstm:
                lane_block[...] = d_gates[time, n].transpose(1, 0, 2)
            else:
                lane_block[:, :, :2 * hidden_dim] = \
                    d_gates[time, n, :, :2 * hidden_dim].transpose(1, 0, 2)
                lane_block[:, :, 2 * hidden_dim:] = d_cands[time, n].transpose(1, 0, 2)
        flat = d_gx.reshape(batch * seq_len, num_lanes * gw)
        if x.requires_grad:
            x._accumulate_grad((flat @ wih_cat.T).reshape(x.data.shape), owned=True)
        if any(w.requires_grad for w in weight_ih):
            d_wih = x.data.reshape(batch * seq_len, -1).T @ flat
            for n, w in enumerate(weight_ih):
                if w.requires_grad:
                    w._accumulate_grad(
                        np.ascontiguousarray(d_wih[:, n * gw:(n + 1) * gw]),
                        owned=True)
        if any(b.requires_grad for b in bias):
            d_bias = flat.sum(axis=0)
            for n, b in enumerate(bias):
                if b.requires_grad:
                    b._accumulate_grad(d_bias[n * gw:(n + 1) * gw].copy(), owned=True)
        for n, w in enumerate(weight_hh):
            if w.requires_grad:
                # One GEMM over all steps (dead steps contribute exact zeros;
                # the scan-order/real-order distinction washes out in the sum).
                w._accumulate_grad(
                    prev_h[:, n].reshape(seq_len * batch, hidden_dim).T
                    @ d_gates[:, n].reshape(seq_len * batch, gw), owned=True)
        for n, t0 in enumerate(h0):
            if t0.requires_grad:
                t0._accumulate_grad(d_h[n].copy(), owned=True)
        for n, t0 in enumerate(c0):
            if t0.requires_grad:
                t0._accumulate_grad(d_c[n].copy(), owned=True)

    return _attach(states, parents, backward)


# --------------------------------------------------------------------------- #
# Thin wrappers over the N-lane core (historical public signatures)            #
# --------------------------------------------------------------------------- #
def gru_scan(x: Tensor, h0: Tensor, weight_ih: Tensor, weight_hh: Tensor,
             bias: Tensor, mask=None, reverse: bool = False) -> Tensor:
    """Fused whole-sequence GRU: ``(batch, seq, features) -> (batch, seq, hidden)``.

    Single-lane :func:`lane_scan`; ``reverse=True`` scans right-to-left, with
    ``states[:, t]`` holding the state *after* consuming ``x[:, t]`` in scan
    order either way.
    """
    return lane_scan("gru", x, (h0,), None, (weight_ih,), (weight_hh,), (bias,),
                     mask=mask, lane_reverse=(reverse,))


def lstm_scan(x: Tensor, h0: Tensor, c0: Tensor, weight_ih: Tensor,
              weight_hh: Tensor, bias: Tensor, mask=None,
              reverse: bool = False) -> Tensor:
    """Fused whole-sequence LSTM returning the hidden states ``(batch, seq, hidden)``.

    Single-lane :func:`lane_scan`; the cell state threads through the scan
    internally, so gradients enter via the hidden states only — matching a
    per-step chain whose loss reads the hidden trajectory.
    """
    return lane_scan("lstm", x, (h0,), (c0,), (weight_ih,), (weight_hh,), (bias,),
                     mask=mask, lane_reverse=(reverse,))


def gru_bidir_scan(x: Tensor, h0_fwd: Tensor, h0_bwd: Tensor,
                   wih_fwd: Tensor, whh_fwd: Tensor, bias_fwd: Tensor,
                   wih_bwd: Tensor, whh_bwd: Tensor, bias_bwd: Tensor,
                   mask=None) -> Tensor:
    """Fused bidirectional GRU scan: one node for ``(batch, seq, 2 * hidden)``.

    A two-lane :func:`lane_scan` — (forward, backward) — so both directions
    advance inside a single time loop with one batched hidden-side matmul per
    step.  Output layout: ``[:, :, :H]`` forward states, ``[:, :, H:]``
    backward states.
    """
    return lane_scan("gru", x, (h0_fwd, h0_bwd), None,
                     (wih_fwd, wih_bwd), (whh_fwd, whh_bwd), (bias_fwd, bias_bwd),
                     mask=mask, lane_reverse=(False, True))


def lstm_bidir_scan(x: Tensor, h0_fwd: Tensor, c0_fwd: Tensor,
                    h0_bwd: Tensor, c0_bwd: Tensor,
                    wih_fwd: Tensor, whh_fwd: Tensor, bias_fwd: Tensor,
                    wih_bwd: Tensor, whh_bwd: Tensor, bias_bwd: Tensor,
                    mask=None) -> Tensor:
    """Fused bidirectional LSTM scan (two-lane :func:`lane_scan`); returns
    hidden states ``(batch, seq, 2 * hidden)``.
    """
    return lane_scan("lstm", x, (h0_fwd, h0_bwd), (c0_fwd, c0_bwd),
                     (wih_fwd, wih_bwd), (whh_fwd, whh_bwd), (bias_fwd, bias_bwd),
                     mask=mask, lane_reverse=(False, True))


# --------------------------------------------------------------------------- #
# Attention pooling                                                            #
# --------------------------------------------------------------------------- #
#: Additive score penalty for masked positions.  Large enough that the masked
#: exponentials underflow to exactly zero after the softmax shift, yet safely
#: representable in float32 (unlike float64-only magnitudes such as -1e300).
ATTENTION_MASK_VALUE = -1e9


def attention_mask_penalty(mask, dtype) -> np.ndarray:
    """``(1 - mask) * ATTENTION_MASK_VALUE`` in the kernel's compute ``dtype``.

    Computing the penalty directly in the compute dtype keeps a float32 model
    in float32 (a float64 penalty array would silently upcast the scores and
    everything downstream).  Fully-masked rows degrade gracefully: every score
    receives the same offset, so (up to the offset's rounding) the softmax
    falls back to the softmax of the raw scores instead of producing NaNs.
    """
    mask_arr = np.asarray(mask)
    return (1.0 - mask_arr.astype(dtype, copy=False)) \
        * np.asarray(ATTENTION_MASK_VALUE, dtype=dtype)


def attention_pooling(x: Tensor, scores: Tensor, mask=None) -> Tensor:
    """Fused masked-softmax attention pooling.

    ``x`` is ``(batch, seq, features)``, ``scores`` ``(batch, seq)`` (already
    produced by the score MLP, whose nodes stay outside this kernel).  The
    score -> masked-softmax -> weighted-sum chain collapses into one node; the
    weighted sum runs as a batched GEMM.
    """
    score_data = scores.data
    if mask is not None:
        score_data = score_data + attention_mask_penalty(mask, score_data.dtype)
    weights = _softmax_data(score_data, axis=1)  # (batch, seq)
    data = (weights[:, None, :] @ x.data)[:, 0, :]
    parents = (x, scores)
    if not _recording(*parents):
        return _wrap(data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate_grad(weights[:, :, None] * grad[:, None, :], owned=True)
        if scores.requires_grad:
            d_weights = (x.data @ grad[:, :, None])[:, :, 0]
            inner = (d_weights * weights).sum(axis=1, keepdims=True)
            scores._accumulate_grad(weights * (d_weights - inner), owned=True)

    return _attach(data, parents, backward)


# --------------------------------------------------------------------------- #
# Masked mean pooling                                                          #
# --------------------------------------------------------------------------- #
def masked_mean(x: Tensor, mask) -> Tensor:
    """Fused masked mean over time: ``(batch, seq, feat) -> (batch, feat)``.

    Replaces the composed 4-node expand/multiply/sum/scale chain that runs on
    every pooled summary: the masked sum is one batched ``(1, T) @ (T, F)``
    GEMM and the count normalisation folds into the same node.  Rows whose
    mask is all zero divide by 1 (mean of nothing is zero), matching
    ``functional.masked_mean_reference``.
    """
    mask_arr = np.asarray(mask, dtype=x.data.dtype)
    if mask_arr.shape != x.data.shape[:2]:
        raise ValueError(
            f"mask shape {mask_arr.shape} does not match (batch, seq) = "
            f"{x.data.shape[:2]}")
    inv_counts = 1.0 / np.maximum(mask_arr.sum(axis=1), 1.0)  # (batch,)
    data = (mask_arr[:, None, :] @ x.data)[:, 0, :]
    data *= inv_counts[:, None]
    if not _recording(x):
        return _wrap(data)

    def backward(grad):
        scaled = grad * inv_counts[:, None]          # (batch, feat)
        x._accumulate_grad(mask_arr[:, :, None] * scaled[:, None, :], owned=True)

    return _attach(data, (x,), backward)


# --------------------------------------------------------------------------- #
# Mixture-of-experts gate mixing                                               #
# --------------------------------------------------------------------------- #
def mix_experts(stacked: Tensor, gate_weights: Tensor) -> Tensor:
    """Fused gate-weighted expert mixture: ``(B, N, D), (B, N) -> (B, D)``.

    Collapses the composed stack → broadcast-multiply → sum chain used by the
    mixture-of-experts detectors into one node whose forward is a single
    batched ``(1, N) @ (N, D)`` GEMM per row.
    """
    data = (gate_weights.data[:, None, :] @ stacked.data)[:, 0, :]
    parents = (stacked, gate_weights)
    if not _recording(*parents):
        return _wrap(data)

    def backward(grad):
        if stacked.requires_grad:
            stacked._accumulate_grad(
                gate_weights.data[:, :, None] * grad[:, None, :], owned=True)
        if gate_weights.requires_grad:
            gate_weights._accumulate_grad(
                (stacked.data @ grad[:, :, None])[:, :, 0], owned=True)

    return _attach(data, parents, backward)


# --------------------------------------------------------------------------- #
# Layer normalisation                                                          #
# --------------------------------------------------------------------------- #
def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer normalisation over the last axis with learnable affine."""
    mean = x.data.mean(axis=-1, keepdims=True)
    centred = x.data - mean
    variance = (centred * centred).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(variance + eps)
    normalised = centred * inv_std
    data = normalised * weight.data + bias.data
    parents = (x, weight, bias)
    if not _recording(*parents):
        return _wrap(data)

    def backward(grad):
        if x.requires_grad:
            d_norm = grad * weight.data
            mean_d = d_norm.mean(axis=-1, keepdims=True)
            mean_dn = (d_norm * normalised).mean(axis=-1, keepdims=True)
            x._accumulate_grad(inv_std * (d_norm - mean_d - normalised * mean_dn),
                               owned=True)
        reduce_axes = tuple(range(grad.ndim - 1))
        if weight.requires_grad:
            weight._accumulate_grad((grad * normalised).sum(axis=reduce_axes),
                                    owned=True)
        if bias.requires_grad:
            bias._accumulate_grad(grad.sum(axis=reduce_axes), owned=True)

    return _attach(data, parents, backward)


# --------------------------------------------------------------------------- #
# Multi-kernel TextCNN                                                         #
# --------------------------------------------------------------------------- #
def textcnn(x: Tensor, weights: list[Tensor], biases: list[Tensor],
            kernel_sizes: tuple[int, ...]) -> Tensor:
    """Kim (2014) TextCNN over ``(batch, seq, channels)`` in one graph node.

    For every kernel ``k`` (weight ``(k * channels, n)``, bias ``(n,)``): a
    valid 1-D convolution, max over time, ReLU; the per-kernel features are
    concatenated into ``(batch, len(kernel_sizes) * n)``.  Max and ReLU
    commute, so the ReLU is applied to the pooled ``(batch, n)`` maximum.

    * The unfold is a zero-copy ``(batch, L_k, k * channels)`` window view
      of ``x``; its reshape to the 2-D ``(batch * L_k, k * channels)`` GEMM
      operand is the only copy, and one 2-D GEMM per kernel follows.
    * The bias add writes a time-major ``(L_k, batch, n)`` copy, so the max
      over time reduces contiguous slabs instead of a strided axis.
    * The backward routes each pooled gradient to the *first* maximal time
      step, found once in the forward (flat scatter positions, no
      ``argmax``); the weight and bias gradients are the dense GEMM and
      column sum over ``(batch, L_k)`` rows, the composed path's order.
    """
    batch, seq_len, channels = x.data.shape
    for weight, kernel_size in zip(weights, kernel_sizes):
        if weight.data.shape[0] != kernel_size * channels:
            raise ValueError(f"expected {weight.data.shape[0] // kernel_size} input "
                             f"channels, got {channels}")
        if seq_len < kernel_size:
            raise ValueError(
                f"sequence length {seq_len} shorter than kernel size {kernel_size}")
    parents = (x, *weights, *biases)
    recording = _recording(*parents)
    width = weights[0].data.shape[1]
    cells = batch * width
    dtype = np.result_type(x.data, *(p.data for p in weights), *(p.data for p in biases))
    data = np.empty((batch, len(kernel_sizes) * width), dtype)
    source = np.ascontiguousarray(x.data)
    saved = []
    for index, (weight, bias, kernel_size) in enumerate(zip(weights, biases, kernel_sizes)):
        out_len = seq_len - kernel_size + 1
        # Row (b, o) of the unfold is x[b, o:o + k, :] flattened, one
        # contiguous run of a C-contiguous x: the window view keeps x's
        # strides and only its shape changes.
        windows = np.ndarray((batch, out_len, kernel_size * channels), source.dtype,
                             source, 0, source.strides)
        unfolded = windows.reshape(batch * out_len, kernel_size * channels)
        conv = unfolded @ weight.data
        time_major = np.empty((out_len, batch, width), dtype)
        np.add(conv.reshape(batch, out_len, width).transpose(1, 0, 2), bias.data,
               out=time_major)
        pooled = time_major.max(axis=0)
        np.maximum(pooled, 0.0, out=data[:, index * width:(index + 1) * width])
        if recording:
            winners = time_major == pooled
            positions = np.flatnonzero(winners)
            if positions.size != cells:
                # Exact ties: keep only the first maximal time step.
                winners[1:] &= ~np.logical_or.accumulate(winners, axis=0)[:-1]
                positions = np.flatnonzero(winners)
            # Time-major flat position t * cells + (b * width + n) -> flat
            # position (b * out_len + t) * width + n of the batch-major
            # (batch * out_len, width) gradient; ``cell`` indexes the pooled grad.
            step, cell = np.divmod(positions, cells)
            row_major = ((cell // width) * out_len + step) * width + cell % width
            saved.append((unfolded, row_major, cell, pooled > 0.0))
    if not recording:
        return _wrap(data)

    def backward(grad):
        for index, (weight, bias, kernel_size) in enumerate(
                zip(weights, biases, kernel_sizes)):
            unfolded, row_major, cell, alive = saved[index]
            out_len = seq_len - kernel_size + 1
            routed = grad[:, index * width:(index + 1) * width] * alive
            d_conv = np.zeros(batch * out_len * width, routed.dtype)
            d_conv[row_major] = routed.reshape(-1)[cell]
            d_conv = d_conv.reshape(batch * out_len, width)
            if x.requires_grad:
                d_unfolded = d_conv @ weight.data.T
                if kernel_size == 1:
                    d_x = d_unfolded.reshape(batch, seq_len, channels)
                else:
                    d_unfolded = d_unfolded.reshape(batch, out_len, kernel_size, channels)
                    d_x = np.zeros_like(x.data)
                    for offset in range(kernel_size):
                        d_x[:, offset:offset + out_len, :] += d_unfolded[:, :, offset, :]
                x._accumulate_grad(d_x, owned=True)
            if weight.requires_grad:
                weight._accumulate_grad(unfolded.T @ d_conv, owned=True)
            if bias.requires_grad:
                bias._accumulate_grad(d_conv.sum(axis=0), owned=True)

    return _attach(data, parents, backward)
