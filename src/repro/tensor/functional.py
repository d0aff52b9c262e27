"""Composite differentiable functions built on :class:`repro.tensor.Tensor`.

These mirror ``torch.nn.functional`` for the subset of operations that the
DTDBD reproduction needs: stable softmax / log-softmax, classification losses,
the temperature-scaled KL divergence used by both distillation losses,
embedding lookup, dropout and pairwise squared Euclidean distances (the
sample-correlation matrix of Eq. 5 in the paper).

The hot functions (``softmax``, ``log_softmax``, ``cross_entropy``,
``distillation_kl``, ``embedding``, ``masked_mean``) dispatch to the
single-node fused kernels in
:mod:`repro.tensor.fused` when fusion is enabled (the default).  The original
composed-primitive implementations are kept under ``*_reference`` names: they
are the ground truth for the fused kernels' gradient-parity tests and the
baseline for the perf benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import fused
from repro.tensor.dtype import get_default_dtype
from repro.tensor.tensor import Tensor, _GRAD_ENABLED, _wrap  # noqa: F401
from repro.utils import fallback_rng


# --------------------------------------------------------------------------- #
# Activations                                                                  #
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if fused.is_fused_enabled():
        return fused.softmax(x, axis=axis)
    return softmax_reference(x, axis=axis)


def softmax_reference(x: Tensor, axis: int = -1) -> Tensor:
    """Composed-primitive softmax (ground truth for the fused kernel)."""
    # _wrap keeps the shift constant in x's own dtype; Tensor() would coerce
    # it to the default policy and upcast a float32 input under float64.
    shifted = x - _wrap(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    if fused.is_fused_enabled():
        return fused.log_softmax(x, axis=axis)
    return log_softmax_reference(x, axis=axis)


def log_softmax_reference(x: Tensor, axis: int = -1) -> Tensor:
    """Composed-primitive log-softmax (ground truth for the fused kernel)."""
    shifted = x - _wrap(x.data.max(axis=axis, keepdims=True))
    logsumexp = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsumexp


# --------------------------------------------------------------------------- #
# Losses                                                                       #
# --------------------------------------------------------------------------- #
def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(n, num_classes)`` one-hot float array for integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label outside [0, num_classes)")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=get_default_dtype())
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def nll_loss(log_probs: Tensor, targets: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    mask = one_hot(targets, log_probs.shape[-1])
    picked = (log_probs * Tensor(mask)).sum(axis=-1)
    if weights is not None:
        picked = picked * Tensor(np.asarray(weights))
        return -picked.sum() / float(np.sum(weights))
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weights: np.ndarray | None = None) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``targets``."""
    if fused.is_fused_enabled():
        return fused.cross_entropy(logits, targets, weights=weights)
    return cross_entropy_reference(logits, targets, weights=weights)


def cross_entropy_reference(logits: Tensor, targets: np.ndarray,
                            weights: np.ndarray | None = None) -> Tensor:
    """Composed-primitive cross-entropy (ground truth for the fused kernel)."""
    return nll_loss(log_softmax_reference(logits, axis=-1), targets, weights=weights)


def kl_divergence(log_p: Tensor, q: Tensor) -> Tensor:
    """KL(q || p) given ``log_p`` (log-probabilities) and ``q`` (probabilities).

    This matches ``torch.nn.KLDivLoss(reduction="batchmean")`` semantics used by
    the paper's distillation losses: the *input* is a log-distribution (from the
    student), the *target* is a distribution (from the teacher), and the result
    is averaged over the batch dimension.
    """
    q_data = np.clip(q.data, 1e-12, None)
    elementwise = Tensor(q_data) * (Tensor(np.log(q_data)) - log_p)
    batch = log_p.shape[0] if log_p.ndim > 0 else 1
    return elementwise.sum() / float(batch)


def distillation_kl(student_logits: Tensor, teacher_logits: Tensor,
                    temperature: float = 1.0) -> Tensor:
    """Temperature-scaled distillation loss ``tau^2 * KL(teacher || student)``.

    Implements the common form used in Eq. 6 and Eq. 12 of the paper: the
    student produces a log-softmax at temperature ``tau``, the (frozen) teacher
    produces a softmax at temperature ``tau``, and the KL divergence is scaled
    by ``tau^2`` to keep gradient magnitudes comparable across temperatures.
    """
    if fused.is_fused_enabled():
        return fused.distillation_kl(student_logits, teacher_logits,
                                     temperature=temperature)
    return distillation_kl_reference(student_logits, teacher_logits,
                                     temperature=temperature)


def distillation_kl_reference(student_logits: Tensor, teacher_logits: Tensor,
                              temperature: float = 1.0) -> Tensor:
    """Composed-primitive distillation loss (ground truth for the fused kernel)."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    student_log = log_softmax_reference(student_logits * (1.0 / temperature), axis=-1)
    teacher_prob = softmax_reference(teacher_logits.detach() * (1.0 / temperature), axis=-1)
    return (temperature ** 2) * kl_divergence(student_log, teacher_prob)


def entropy(probabilities: Tensor, axis: int = -1) -> Tensor:
    """Shannon entropy of a probability distribution along ``axis``."""
    clipped = probabilities.clip(1e-12, 1.0)
    return -(probabilities * clipped.log()).sum(axis=axis)


def information_entropy_loss(domain_probs: Tensor) -> Tensor:
    """Information-entropy loss of Eq. 10: ``G_d(f) . log(G_d(f)^T)``.

    The paper maximises prediction uncertainty of the domain classifier so the
    encoder is pushed toward features shared by *all* relevant domains rather
    than only the single most related one.  Minimising this quantity (the
    negative entropy averaged over the batch) implements that objective.
    """
    clipped = domain_probs.clip(1e-12, 1.0)
    per_sample = (domain_probs * clipped.log()).sum(axis=-1)
    return per_sample.mean()


# --------------------------------------------------------------------------- #
# Structured helpers                                                           #
# --------------------------------------------------------------------------- #
def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices`` (any shape).

    On the fused fast path this is the single-node
    :func:`repro.tensor.fused.embedding` kernel (gather forward, one flat
    ``np.add.at`` scatter backward); the composed path routes through the
    generic advanced-indexing node and is the parity ground truth.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if fused.is_fused_enabled():
        return fused.embedding(weight, indices)
    return embedding_reference(weight, indices)


def embedding_reference(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Composed-primitive embedding lookup (ground truth for the fused kernel)."""
    return weight[np.asarray(indices, dtype=np.int64)]


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else fallback_rng()
    # Draw uniforms directly in the compute dtype when it is float32: halves
    # the RNG work and avoids a cast on the fast path.
    draw_dtype = np.float32 if x.data.dtype == np.float32 else np.float64
    mask = (rng.random(x.shape, dtype=draw_dtype) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def pairwise_squared_distances(features: Tensor) -> Tensor:
    """Pairwise squared Euclidean distance matrix ``M_ij = ||f_i - f_j||^2``.

    This is the sample-correlation matrix of Eq. 5 that the adversarial
    de-biasing distillation treats as transferable knowledge.  Computed as
    ``||a||^2 + ||b||^2 - 2 a.b`` so the whole matrix stays differentiable.
    """
    if features.ndim != 2:
        raise ValueError("expected a (batch, features) matrix")
    squared_norms = (features * features).sum(axis=1, keepdims=True)
    gram = features @ features.transpose(1, 0)
    distances = squared_norms + squared_norms.transpose(1, 0) - 2.0 * gram
    # Numerical noise can make tiny negatives; clamp at zero.
    return distances.relu()


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``."""
    norms = (x * x).sum(axis=axis, keepdims=True) ** 0.5
    return x / (norms + eps)


def masked_mean(x: Tensor, mask: np.ndarray, axis: int = 1) -> Tensor:
    """Mean over ``axis`` counting only positions where ``mask`` is 1.

    ``x`` is typically ``(batch, seq, features)`` and ``mask`` ``(batch, seq)``;
    that hot case runs as the single-node :func:`repro.tensor.fused.masked_mean`
    kernel when fusion is enabled.
    """
    mask = np.asarray(mask)
    if (fused.is_fused_enabled() and axis == 1 and x.ndim == 3
            and mask.ndim == 2):
        return fused.masked_mean(x, mask)
    return masked_mean_reference(x, mask, axis=axis)


def masked_mean_reference(x: Tensor, mask: np.ndarray, axis: int = 1) -> Tensor:
    """Composed-primitive masked mean (ground truth for the fused kernel)."""
    mask = np.asarray(mask, dtype=x.data.dtype)
    expanded = Tensor(mask[..., None]) if x.ndim == mask.ndim + 1 else Tensor(mask)
    total = (x * expanded).sum(axis=axis)
    counts = np.maximum(mask.sum(axis=axis, keepdims=False), 1.0)
    if x.ndim == mask.ndim + 1:
        counts = counts[..., None]
    return total * Tensor(1.0 / counts)
