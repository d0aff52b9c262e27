"""Batching: :class:`Batch` containers and the :class:`DataLoader`.

The loader encodes the whole dataset once (token ids, mask, labels, domains)
and optionally precomputes *feature channels*
(:class:`repro.encoders.FeatureChannel`) — e.g. the frozen pre-trained
encoder output, style features or emotion features — so that iterating over
epochs is just array slicing.  :func:`fill_channel` computes every channel
in fixed row windows, at construction and for
:class:`repro.data.StreamWindowBuffer` ring writes alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.data.dataset import MultiDomainNewsDataset
from repro.data.tokenizer import WhitespaceTokenizer
from repro.data.vocab import Vocabulary
from repro.tensor import get_default_dtype


#: Rows per :meth:`FeatureChannel.extract` call in :func:`fill_channel`.
#: Extraction temporaries (the frozen encoder's float64 intermediates) then
#: scale with this window instead of with the split.
FILL_WINDOW = 256


def fill_channel(channel, items: Sequence, token_ids: np.ndarray,
                 mask: np.ndarray, out: np.ndarray | None = None,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Write ``channel``'s features for ``items`` into ``out``, window by window.

    Runs ``channel.extract`` over consecutive :data:`FILL_WINDOW`-row slices
    of ``items``/``token_ids``/``mask`` and writes each result straight into
    ``out[rows]`` (``rows[i]`` is where item ``i`` lands; default: row ``i``).
    Without ``out``, the first window sizes a new ``(len(items), ...)``
    array: floating channels are stored in the compute dtype, any other
    channel keeps its own dtype.  This is exact because ``extract`` is
    row-wise (see :meth:`FeatureChannel.extract`).  A window that comes back
    with the wrong row count raises ``ValueError`` naming the channel.
    """
    total = len(items)
    for start in range(0, max(total, 1), FILL_WINDOW):
        stop = min(start + FILL_WINDOW, total)
        values = np.asarray(channel.extract(items[start:stop],
                                            token_ids[start:stop],
                                            mask[start:stop]))
        if values.shape[0] != stop - start:
            raise ValueError(
                f"feature channel '{channel.name}' returned {values.shape[0]} "
                f"rows for {stop - start} items")
        if out is None:
            dtype = (get_default_dtype()
                     if np.issubdtype(values.dtype, np.floating) else values.dtype)
            out = np.empty((total,) + values.shape[1:], dtype=dtype)
        out[slice(start, stop) if rows is None else rows[start:stop]] = values
    return out


@dataclass
class Batch:
    """One mini-batch of encoded news items.

    ``indices`` carries the *absolute dataset positions* of the rows in this
    batch (``batch.token_ids[i] == loader.token_ids[batch.indices[i]]``).
    They are stable across epochs and iteration modes — shuffling permutes
    which positions land in a batch, never what a position means — which is
    the contract that lets per-sample caches (e.g.
    :class:`repro.core.distill.TeacherCache`) precompute over
    :meth:`DataLoader.iter_eval` once and serve any later batch by gathering
    on ``batch.indices``.
    """

    token_ids: np.ndarray
    mask: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    indices: np.ndarray
    features: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.token_ids.shape[0])

    def feature(self, name: str) -> np.ndarray:
        if name not in self.features:
            raise KeyError(
                f"batch has no feature channel '{name}'; available: {sorted(self.features)}")
        return self.features[name]


class DataLoader:
    """Iterates a :class:`MultiDomainNewsDataset` in shuffled mini-batches."""

    def __init__(self, dataset: MultiDomainNewsDataset, vocab: Vocabulary,
                 max_length: int = 24, batch_size: int = 32, shuffle: bool = True,
                 seed: int = 0,
                 tokenizer: WhitespaceTokenizer | None = None,
                 channels: Sequence | None = None):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.vocab = vocab
        self.max_length = max_length
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._tokenizer = tokenizer or WhitespaceTokenizer()

        self.token_ids, self.mask = dataset.encode(vocab, max_length, tokenizer=self._tokenizer)
        self.labels = dataset.labels
        self.domains = dataset.domains
        # Store floating arrays in the engine's compute dtype once, so the
        # models never re-cast per batch (matters on the float32 fast path).
        self.mask = self.mask.astype(get_default_dtype(), copy=False)
        self.channels = self._channel_objects(channels)
        self.features: dict[str, np.ndarray] = {
            channel.name: fill_channel(channel, dataset.items, self.token_ids,
                                       self.mask)
            for channel in self.channels}
        # Identity index array shared by every deterministic iteration: eval
        # batches slice views out of it instead of allocating ranges per batch.
        self._identity = np.arange(len(dataset))

    @staticmethod
    def _channel_objects(channels: Sequence | None) -> list:
        """Resolve ``channels`` entries to :class:`FeatureChannel` instances.

        Accepts channel instances directly or spec dicts resolved through the
        :data:`repro.encoders.FEATURE_CHANNELS` registry.  A ``plm`` channel
        must be an instance: its spec names no backend (a pipeline binds it to
        its own, see :func:`repro.encoders.channels_from_specs`).
        """
        if not channels:
            return []
        from repro.encoders.channels import FeatureChannel, build_feature_channel

        resolved = []
        for entry in channels:
            if isinstance(entry, FeatureChannel):
                resolved.append(entry)
            elif isinstance(entry, dict):
                resolved.append(build_feature_channel(entry))
            else:
                raise TypeError(
                    f"channels entries must be FeatureChannel instances or spec "
                    f"dicts, got {type(entry).__name__}")
        names = [channel.name for channel in resolved]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(
                    f"feature channel '{name}' is passed more than once; each "
                    "channel name must be unique")
        return resolved

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(np.ceil(len(self.dataset) / self.batch_size))

    @property
    def num_domains(self) -> int:
        return self.dataset.num_domains

    @property
    def tokenizer(self) -> WhitespaceTokenizer:
        """The tokenizer the dataset was encoded with (for export/serving)."""
        return self._tokenizer

    @property
    def num_samples(self) -> int:
        """Number of rows every ``batch.indices`` entry indexes into."""
        return len(self.dataset)

    def _slice(self, indices: np.ndarray | slice) -> Batch:
        """Build a batch for ``indices``.

        Contiguous selections are passed as ``slice`` objects so every array
        (token ids, mask, labels, domains and *all* feature channels) is a
        zero-copy view; shuffled training batches use fancy indexing.
        """
        return Batch(
            token_ids=self.token_ids[indices],
            mask=self.mask[indices],
            labels=self.labels[indices],
            domains=self.domains[indices],
            indices=self._identity[indices] if isinstance(indices, slice) else indices,
            features={name: values[indices] for name, values in self.features.items()},
        )

    def reseed(self, seed: int | None = None) -> None:
        """Restore the shuffle stream to its constructor state (or ``seed``).

        The epoch shuffle draws from a mutable generator, so the batch order
        seen by a training run depends on how many epochs were consumed
        before it.  Callers that share one loader across independent runs
        (e.g. the benchmark fixtures) reseed between runs so every run sees
        the same deterministic stream regardless of what ran earlier.
        """
        if seed is not None:
            self._seed = seed
        self._rng = np.random.default_rng(self._seed)

    def rng_state(self) -> dict:
        """JSON-serialisable state of the shuffle stream (for training snapshots)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore the shuffle stream to a state from :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    def epoch_order(self) -> np.ndarray:
        """Materialise one epoch's index permutation, advancing the shuffle stream.

        Consumes exactly the randomness :func:`repro.utils.batched_indices`
        would (one ``rng.shuffle`` over ``arange(n)``), so iterating via
        ``iter_from(epoch_order())`` is bit-identical to ``iter(loader)``.
        Resumable trainers snapshot the returned array: after a mid-epoch
        crash the permutation cannot be re-derived, because the stream has
        already advanced past it.
        """
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        return order

    def iter_from(self, order: np.ndarray, start_batch: int = 0) -> Iterator[Batch]:
        """Iterate batches of ``order`` starting at batch ``start_batch``.

        Batch boundaries match :func:`repro.utils.batched_indices` exactly
        (size ``batch_size``, last batch ragged), so a resumed epoch sees the
        same batch *shapes* as the uninterrupted run — the property that keeps
        BLAS results bit-identical across a crash/resume boundary.
        """
        if len(order) != len(self.dataset):
            raise ValueError(
                f"epoch order has {len(order)} entries for a dataset of "
                f"{len(self.dataset)} rows; was the loader rebuilt over "
                "different data?")
        size = self.batch_size
        for index in range(start_batch, len(self)):
            yield self._slice(order[index * size:(index + 1) * size])

    def __iter__(self) -> Iterator[Batch]:
        yield from self.iter_from(self.epoch_order())

    def full_batch(self) -> Batch:
        """Return the entire dataset as a single batch (evaluation helper)."""
        return self._slice(slice(0, len(self.dataset)))

    def window(self, start: int, stop: int) -> Batch:
        """Contiguous zero-copy batch of rows ``[start, stop)``.

        ``start``/``stop`` are absolute dataset positions (the same space as
        ``Batch.indices``).  This is the precompute entry point for
        per-sample caches: :class:`repro.core.distill.TeacherCache` walks the
        dataset in fixed-size windows so every row is forwarded with the same
        batch shape a full training batch uses.
        """
        if not 0 <= start <= stop <= len(self.dataset):
            raise ValueError(
                f"window [{start}, {stop}) outside dataset of {len(self.dataset)} rows")
        return self._slice(slice(start, stop))

    def iter_eval(self, batch_size: int | None = None) -> Iterator[Batch]:
        """Deterministic, unshuffled iteration (for evaluation).

        Eval order is contiguous, so each batch reuses views of the encoded
        arrays and precomputed feature channels — no per-batch copies and no
        per-batch ``arange`` allocations.
        """
        size = batch_size or self.batch_size
        total = len(self.dataset)
        for start in range(0, total, size):
            yield self._slice(slice(start, min(start + size, total)))
