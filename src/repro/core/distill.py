"""The two distillation losses of DTDBD.

* **Adversarial de-biasing distillation (ADD, Eq. 5–6).**  The unbiased teacher
  and the student each produce intermediate features for the same mini-batch;
  their pairwise Euclidean correlation matrices are treated as distributions
  (row-wise softmax at temperature ``tau``) and matched with a
  temperature-scaled KL divergence.  The *relative relationships between
  samples* — not the labels — are the transferred knowledge, which is what lets
  the student inherit the unbiased geometry without being forced onto fully
  domain-invariant features.

* **Domain knowledge distillation (DKD, Eq. 12).**  The clean teacher
  (MDFEND or M3FEND) and the student classify the same mini-batch; their
  classifier logits are matched with the same temperature-scaled KL.  This
  transfers fuzzy multi-domain knowledge and protects performance.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from repro.data.loader import Batch, DataLoader
from repro.models.base import FakeNewsDetector
from repro.tensor import Tensor, functional as F, fused, get_default_dtype, no_grad


def correlation_matrix(features: Tensor, normalize: bool = True) -> Tensor:
    """Sample-correlation matrix ``M_ij = ||f_i - f_j||^2`` (Eq. 5).

    With ``normalize=True`` the features are L2-normalised first, so the matrix
    captures the *relative* geometry of the batch independently of the feature
    scale — teacher and student features live in different spaces, and without
    this the softened distributions of Eq. 6 would be dominated by whichever
    network produces larger activations.
    """
    if normalize:
        features = F.normalize(features, axis=-1)
    return F.pairwise_squared_distances(features)


def adversarial_debiasing_distillation_loss(student_features: Tensor,
                                            teacher_features: Tensor,
                                            temperature: float = 1.0,
                                            normalize: bool = True) -> Tensor:
    """ADD loss (Eq. 6): match row-wise softened correlation distributions.

    ``teacher_features`` is detached — the unbiased teacher is frozen during
    distillation (Section V-A).  The negated distance matrices are softened so
    that *similar* pairs receive high probability mass, matching the intuition
    that the transferred knowledge is "which samples the teacher considers
    close to each other".

    On the fused fast path the whole chain (normalise -> pairwise distances ->
    row softmax -> temperature KL) runs as the single-node
    :func:`repro.tensor.fused.add_loss` kernel; the composed path below is its
    parity ground truth.
    """
    if student_features.shape[0] != teacher_features.shape[0]:
        raise ValueError("student and teacher must encode the same mini-batch")
    if student_features.shape[0] < 2:
        raise ValueError("ADD needs at least two samples to form a correlation matrix")
    if fused.is_fused_enabled():
        return fused.add_loss(student_features, teacher_features,
                              temperature=temperature, normalize=normalize)
    student_matrix = -correlation_matrix(student_features, normalize=normalize)
    teacher_matrix = -correlation_matrix(teacher_features.detach(), normalize=normalize)
    return F.distillation_kl(student_matrix, teacher_matrix, temperature=temperature)


def domain_knowledge_distillation_loss(student_logits: Tensor,
                                       teacher_logits: Tensor,
                                       temperature: float = 4.0) -> Tensor:
    """DKD loss (Eq. 12): match classifier outputs of clean teacher and student."""
    if student_logits.shape != teacher_logits.shape:
        raise ValueError(
            f"logit shapes differ: student {student_logits.shape} vs teacher {teacher_logits.shape}")
    return F.distillation_kl(student_logits, teacher_logits, temperature=temperature)


def teacher_forward(teacher: FakeNewsDetector, batch: Batch) -> tuple[Tensor, Tensor]:
    """Run a frozen teacher in eval mode without building a graph.

    Returns ``(logits, features)`` as constant tensors.

    A teacher that is already in eval mode — the steady state for the whole of
    a DTDBD run, where both teachers are frozen and eval'd once up front — is
    forwarded as-is: no per-batch ``eval()``/``train()`` mode flips (each of
    which walks the full module tree) and no redundant ``detach()`` (under
    :func:`no_grad` the outputs are already constants).  Ad-hoc callers with a
    teacher still in training mode keep the original contract: the forward
    runs in eval mode and the training flag is restored afterwards.
    """
    was_training = teacher.training
    if was_training:
        teacher.eval()
    with no_grad():
        logits, features = teacher.forward_with_features(batch)
    if was_training:
        teacher.train()
    if logits.requires_grad:
        logits = logits.detach()
    if features.requires_grad:
        features = features.detach()
    return logits, features


class _Outputs:
    """One teacher's outputs over one loader and the stamp of what produced
    them; it refers to neither, so the registry's weak keys can die."""

    __slots__ = ("logits", "features", "invalid_windows", "stamp")

    def __init__(self):
        self.invalid_windows: set[int] = set()
        self.drop()

    def drop(self) -> None:
        self.logits = self.features = self.stamp = None
        self.invalid_windows.clear()

    def invalidate(self, indices, loader: DataLoader) -> None:
        """See :meth:`TeacherCache.invalidate`."""
        if indices is None:
            self.drop()
            return
        total = loader.num_samples
        window = min(loader.batch_size, total)
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= total:
            raise IndexError(
                f"invalidate indices [{int(indices.min())}, "
                f"{int(indices.max())}] outside the dataset of {total} samples")
        if self.logits is None:
            return  # nothing materialised yet; the first lookup is fresh anyway
        nfull = (total - window) // window + 1 if total >= window else 0
        for row in {int(r) for r in indices}:
            # Rows past the last aligned window live in the overlapping tail
            # pass (window id ``nfull``); everything else maps by division.
            self.invalid_windows.add(row // window if row < nfull * window
                                     else nfull)


#: loader -> teacher -> outputs, weak on both keys: an entry goes when its
#: loader or teacher is collected, so a dead object's reused ``id()`` never
#: reaches it.
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def invalidate_teacher_outputs(loader: DataLoader, indices=None) -> None:
    """:meth:`TeacherCache.invalidate` for every teacher's cache over ``loader``."""
    for outputs in list(_SHARED.get(loader, {}).values()):
        outputs.invalidate(indices, loader)


class TeacherCache:
    """Precomputed frozen-teacher outputs, served by per-batch gathers.

    Both DTDBD teachers are frozen for the whole of student training, so their
    per-sample ``(logits, features)`` are constants across every epoch — yet
    the naive trainer re-runs both teacher forwards on every mini-batch,
    tripling forward compute per step.  This cache runs each teacher exactly
    once over the full dataset (fixed-size :meth:`DataLoader.window` passes
    under ``no_grad`` — see the bit-exactness note below for why not a plain
    ``iter_eval``) and afterwards serves any mini-batch by gathering rows on
    ``batch.indices``
    (absolute dataset positions — see the :class:`repro.data.loader.Batch`
    contract), which is numerically exact: the same arrays, gathered instead
    of recomputed.

    The arrays belong to the ``(teacher, loader)`` pair, not to the cache
    object: every cache of the pair serves the same arrays, kept in a
    registry that holds neither teacher nor loader alive, so a second
    distillation from the same frozen teacher over the same loader runs no
    teacher pass.  They materialise lazily on first :meth:`lookup`.  At its
    first lookup each cache checks that everything that produced the arrays
    still matches — the teacher's parameter bytes (with names, dtypes and
    shapes), whether fused kernels are on, the default dtype, the window
    size and the row count — and otherwise drops them for a fresh pass.
    After that the arrays are assumed valid while the teacher's parameters
    and the loader's encoded arrays stay unchanged; callers that mutate
    either must call :meth:`invalidate` (or :func:`invalidate_teacher_outputs`
    for every teacher over a loader), after which the next lookup
    recomputes.  Caching an *unfrozen* teacher is refused outright — its
    outputs would silently go stale after the first optimiser step.

    Bit-exactness subtlety: BLAS kernels pick different code paths for
    different batch row counts, so a row forwarded in a batch of 16 can
    differ *in the last ulp* from the same row forwarded in a batch of 11.
    The materialisation pass therefore runs every row through a window of
    exactly ``batch_size`` rows (the final window overlaps its predecessor
    instead of going ragged), which makes gathered outputs bit-identical to
    a live forward for every *full-size* training batch — :meth:`serves`
    tells callers which batches that covers, and the DTDBD trainer forwards
    the (at most one per epoch) ragged batch live.
    """

    def __init__(self, teacher: FakeNewsDetector, loader: DataLoader):
        if teacher.parameters():
            raise ValueError(
                "TeacherCache requires a frozen teacher (call teacher.freeze() "
                "first); caching a model whose parameters still receive "
                "gradients would serve stale outputs")
        self.teacher = teacher
        self.loader = loader
        self._outputs = _SHARED.setdefault(loader, weakref.WeakKeyDictionary()) \
            .setdefault(teacher, _Outputs())
        #: the stamp is checked at the first lookup, so under the dtype and
        #: kernels the cache serves with
        self._unchecked = True
        #: windows this cache re-forwarded after a row-level invalidation
        self.recomputed_windows = 0

    def _stamp(self) -> tuple:
        """What the cached arrays depend on besides the loader's rows."""
        digest = hashlib.sha256()
        for name, array in self.teacher.state_dict().items():
            digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
            digest.update(array)
        return (digest.hexdigest(), fused.is_fused_enabled(),
                get_default_dtype().str, self.window_size, self.loader.num_samples)

    def restamp(self) -> None:
        """Keep the cached arrays across a change that leaves them exact.

        :func:`repro.models.expand_domains` rewrites a teacher's bytes but
        not its outputs for existing rows; restamping after it lets the next
        cache of the pair reuse the arrays instead of refusing them.  Only a
        cache that has served its arrays (so checked them) vouches for them;
        on any other this is a no-op.
        """
        if self.materialised and not self._unchecked:
            self._outputs.stamp = self._stamp()

    @property
    def window_size(self) -> int:
        """Row count of every materialisation forward (and of served batches)."""
        return min(self.loader.batch_size, self.loader.num_samples)

    def serves(self, batch: Batch) -> bool:
        """Whether gathering ``batch`` is bit-identical to a live forward.

        True for batches of exactly :attr:`window_size` rows — the shape every
        cached row was computed with.  Smaller (ragged) batches would hit the
        BLAS batch-shape effect described in the class docstring; callers that
        need bit-exact trajectories forward those live.
        """
        return len(batch) == self.window_size

    @property
    def materialised(self) -> bool:
        """Whether the full-dataset pass has run since the last invalidation."""
        return self._outputs.logits is not None

    def invalidate(self, indices=None) -> None:
        """Invalidate cached rows; the next lookup recomputes what's needed.

        With ``indices=None`` (the legacy all-or-nothing behaviour) the cached
        arrays are dropped and the next lookup redoes the full-dataset pass.
        With a sequence of absolute dataset positions, only the
        materialisation *windows* containing those rows are marked stale and
        lazily re-forwarded in place on the next lookup — rows in untouched
        windows are never rewritten, so they stay bit-identical by
        construction.  Window granularity (not row granularity) is forced by
        the batch-shape bit-exactness contract: a stale row can only be
        recomputed inside the same full-size window it was originally
        forwarded with.
        """
        self._outputs.invalidate(indices, self.loader)

    def _forward_stale_windows(self) -> None:
        """Forward every stale window and write its rows in place.

        Arrays that are not materialised count every window as stale, so the
        full-dataset pass is this same loop.  Windows are ``window_size``
        rows at multiples of it; a ragged tail is re-windowed over the
        *last* ``window_size`` rows so its rows still come from a full-size
        forward, and only the rows no aligned window covers are kept.
        """
        outputs = self._outputs
        fresh = outputs.logits is None
        if not (fresh or outputs.invalid_windows):
            return
        total = self.loader.num_samples
        window = self.window_size
        aligned, remainder = divmod(total, window)
        if fresh:
            outputs.invalid_windows.update(range(aligned + bool(remainder)))
        logits_out, features_out = outputs.logits, outputs.features
        was_training = self.teacher.training
        if was_training:
            self.teacher.eval()
        with no_grad():
            for window_id in sorted(outputs.invalid_windows):
                start = window_id * window if window_id < aligned else total - window
                keep = 0 if window_id < aligned else window - remainder
                logits, features = self.teacher.forward_with_features(
                    self.loader.window(start, start + window))
                logits, features = logits.numpy()[keep:], features.numpy()[keep:]
                if logits_out is None:
                    logits_out = np.empty((total, *logits.shape[1:]), logits.dtype)
                    features_out = np.empty((total, *features.shape[1:]),
                                            features.dtype)
                logits_out[start + keep:start + window] = logits
                features_out[start + keep:start + window] = features
        if was_training:
            self.teacher.train()
        if fresh:
            outputs.logits, outputs.features = logits_out, features_out
            outputs.stamp = self._stamp()
        else:
            self.recomputed_windows += len(outputs.invalid_windows)
        outputs.invalid_windows.clear()

    def lookup(self, batch: Batch) -> tuple[Tensor, Tensor]:
        """Return the teacher's ``(logits, features)`` for ``batch`` as constants.

        ``batch`` must come from this cache's loader: indices are plain
        dataset positions, so a batch from a *different* loader is only
        detected when an index falls outside the cached range — in-range
        foreign indices would gather the wrong rows silently.
        """
        outputs = self._outputs
        if self._unchecked:
            self._unchecked = False
            if outputs.stamp is not None and outputs.stamp != self._stamp():
                outputs.drop()
        self._forward_stale_windows()
        indices = np.asarray(batch.indices)
        if indices.size and (int(indices.min()) < 0
                             or int(indices.max()) >= outputs.logits.shape[0]):
            raise IndexError(
                f"batch indices [{int(indices.min())}, {int(indices.max())}] "
                f"outside the cached dataset of {outputs.logits.shape[0]} "
                "samples; was this batch produced by a different loader?")
        return Tensor(outputs.logits[indices]), Tensor(outputs.features[indices])
