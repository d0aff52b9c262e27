"""A ring buffer of fresh stream items over an existing :class:`DataLoader`.

Online adaptation fine-tunes the student on recent labeled traffic.  Rather
than rebuilding a loader per adaptation (which would re-encode the whole
corpus and drop every precomputed teacher output),
:class:`StreamWindowBuffer` overwrites loader rows **in place**: each write
re-encodes the new items through the same :func:`repro.data.encode_texts` +
:func:`~repro.data.loader.fill_channel` path the loader used at
construction, lands them at the ring cursor, and returns the absolute row
indices it touched — exactly the handle
:meth:`repro.core.DTDBDTrainer.invalidate_teacher_caches` needs to
invalidate only the :class:`~repro.core.TeacherCache` windows containing
fresh data.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import FAKE_LABEL, REAL_LABEL, NewsItem, encode_texts
from repro.data.loader import DataLoader, fill_channel


class StreamWindowBuffer:
    """Overwrite rows of a loader with fresh items, oldest-first."""

    def __init__(self, loader: DataLoader):
        self.loader = loader
        self._cursor = 0
        #: total items ever written (diagnostics; wraps are written -
        #: capacity overwrites)
        self.written = 0

    @property
    def capacity(self) -> int:
        return self.loader.num_samples

    @property
    def cursor(self) -> int:
        """The row the next write lands on."""
        return self._cursor

    def write(self, items: "list[NewsItem]") -> np.ndarray:
        """Overwrite the next ``len(items)`` ring rows; returns touched indices.

        Each item is validated (label in ``{REAL, FAKE}``, domain inside the
        loader dataset's current domain count — which grows on continual
        onboarding), encoded with the loader's vocab/max_length/tokenizer,
        and run through every channel in ``loader.channels`` so the
        overwritten rows are indistinguishable from rows encoded at
        construction.  Each feature array has its channel, so no row goes
        stale; to compute fewer channels, narrow the loader first (as
        :class:`repro.streaming.OnlineAdapter` does).  One write of more than
        ``capacity`` items is refused: the ring would overwrite its own fresh
        data mid-call.
        """
        if not items:
            return np.empty(0, dtype=np.int64)
        if len(items) > self.capacity:
            raise ValueError(
                f"cannot write {len(items)} items into a {self.capacity}-row "
                "ring in one call; split the write or use a larger loader")
        num_domains = self.loader.dataset.num_domains
        for item in items:
            if not isinstance(item, NewsItem):
                raise TypeError(
                    f"write expects NewsItem instances, got {type(item).__name__}")
            if item.label not in (REAL_LABEL, FAKE_LABEL):
                raise ValueError(
                    f"item {item.item_id} has invalid label {item.label}")
            if not 0 <= item.domain < num_domains:
                raise ValueError(
                    f"item {item.item_id} has domain {item.domain} outside "
                    f"the dataset's {num_domains} domains")

        loader = self.loader
        indices = np.array([(self._cursor + offset) % self.capacity
                            for offset in range(len(items))], dtype=np.int64)
        token_ids, mask = encode_texts([item.text for item in items],
                                       loader.vocab, loader.max_length,
                                       tokenizer=loader.tokenizer)
        mask = mask.astype(loader.mask.dtype, copy=False)
        loader.token_ids[indices] = token_ids
        loader.mask[indices] = mask
        loader.labels[indices] = np.array([item.label for item in items],
                                          dtype=loader.labels.dtype)
        loader.domains[indices] = np.array([item.domain for item in items],
                                           dtype=loader.domains.dtype)
        for channel in loader.channels:
            fill_channel(channel, items, token_ids, mask,
                         out=loader.features[channel.name], rows=indices)
        for index, item in zip(indices, items):
            loader.dataset.items[int(index)] = item
        self._cursor = int((self._cursor + len(items)) % self.capacity)
        self.written += len(items)
        return indices


__all__ = ["StreamWindowBuffer"]
