"""News item and multi-domain dataset containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.data.tokenizer import WhitespaceTokenizer
from repro.data.vocab import Vocabulary

REAL_LABEL = 0
FAKE_LABEL = 1

#: Human-readable names of the binary labels, indexed by label id.
LABEL_NAMES = ("real", "fake")


def encode_texts(texts: Sequence[str], vocab: Vocabulary, max_length: int,
                 tokenizer: WhitespaceTokenizer | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Encode raw ``texts`` into ``(token_ids, mask)`` matrices.

    This is the ONE truncation+padding implementation shared by training-time
    dataset encoding (:meth:`MultiDomainNewsDataset.encode`, hence every
    :class:`repro.data.DataLoader`) and the serving path
    (:class:`repro.serve.Predictor`): a tokenizer pass, :meth:`Vocabulary.encode`
    with truncation to ``max_length`` and right-padding with the pad id, and a
    0/1 mask covering the surviving (pre-padding) positions.  Tokenizers that
    carry their own ``max_length`` truncate first, exactly as they do when a
    dataset is encoded — keeping the two paths byte-identical is pinned by
    ``tests/serve/test_predictor.py``.
    """
    tokenizer = tokenizer or WhitespaceTokenizer()
    token_ids = np.zeros((len(texts), max_length), dtype=np.int64)
    mask = np.zeros((len(texts), max_length), dtype=np.float64)
    for row, text in enumerate(texts):
        tokens = tokenizer(text)
        token_ids[row] = vocab.encode(tokens, max_length=max_length, pad=True)
        mask[row, : min(max_length, len(tokens))] = 1.0
    return token_ids, mask


def default_token_lists(texts: Sequence[str]) -> list[list[str]]:
    """Whitespace-tokenise *untruncated* raw texts, one list per text.

    The one tokenisation the handcrafted feature channels read, shared by the
    training-time extractors and the serving path so the two stay
    byte-identical: channels see the full raw token stream regardless of the
    vocabulary truncation applied to the model's token-id window.
    """
    tokenizer = WhitespaceTokenizer()
    return [tokenizer(text) for text in texts]


@dataclass
class NewsItem:
    """A single news piece with its veracity and domain labels.

    Attributes
    ----------
    text:
        Raw news text (space-separated symbolic tokens for synthetic corpora).
    label:
        0 for real, 1 for fake (Definition 1 in the paper).
    domain:
        Integer domain index.
    domain_name:
        Human-readable domain name (e.g. ``"disaster"``).
    item_id:
        Stable identifier, useful for case studies and debugging.
    metadata:
        Free-form extra information recorded by the generator (e.g. whether the
        item carries an explicit veracity signal).
    """

    text: str
    label: int
    domain: int
    domain_name: str = ""
    item_id: int = -1
    metadata: dict = field(default_factory=dict)

    def tokens(self, tokenizer: WhitespaceTokenizer | None = None) -> list[str]:
        tokenizer = tokenizer or WhitespaceTokenizer()
        return tokenizer(self.text)


class MultiDomainNewsDataset:
    """In-memory multi-domain fake-news dataset ``N_M = {P, D, Y}`` (Definition 2)."""

    def __init__(self, items: Sequence[NewsItem], domain_names: Sequence[str],
                 name: str = "dataset"):
        self.items = list(items)
        self.domain_names = list(domain_names)
        self.name = name
        for item in self.items:
            if not 0 <= item.domain < len(self.domain_names):
                raise ValueError(
                    f"item {item.item_id} has domain {item.domain} outside the dataset's domains")
            if item.label not in (REAL_LABEL, FAKE_LABEL):
                raise ValueError(f"item {item.item_id} has invalid label {item.label}")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> NewsItem:
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    @property
    def num_domains(self) -> int:
        return len(self.domain_names)

    @property
    def labels(self) -> np.ndarray:
        return np.array([item.label for item in self.items], dtype=np.int64)

    @property
    def domains(self) -> np.ndarray:
        return np.array([item.domain for item in self.items], dtype=np.int64)

    def texts(self) -> list[str]:
        return [item.text for item in self.items]

    # ------------------------------------------------------------------ #
    def subset(self, indices: Iterable[int], name: str | None = None) -> "MultiDomainNewsDataset":
        """Return a new dataset view containing only ``indices`` (copy of list)."""
        indices = list(indices)
        items = [self.items[i] for i in indices]
        return MultiDomainNewsDataset(items, self.domain_names,
                                      name=name or f"{self.name}/subset")

    def build_vocabulary(self, min_freq: int = 1, max_size: int | None = None,
                         tokenizer: WhitespaceTokenizer | None = None) -> Vocabulary:
        tokenizer = tokenizer or WhitespaceTokenizer()
        return Vocabulary.from_documents(
            (tokenizer(item.text) for item in self.items),
            min_freq=min_freq, max_size=max_size)

    def encode(self, vocab: Vocabulary, max_length: int,
               tokenizer: WhitespaceTokenizer | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Encode every item into ``(token_ids, mask)`` integer/float matrices."""
        return encode_texts(self.texts(), vocab, max_length, tokenizer=tokenizer)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Quick per-domain counts (see :mod:`repro.data.statistics` for tables)."""
        labels = self.labels
        domains = self.domains
        per_domain = {}
        for index, domain_name in enumerate(self.domain_names):
            domain_mask = domains == index
            per_domain[domain_name] = {
                "total": int(domain_mask.sum()),
                "fake": int((labels[domain_mask] == FAKE_LABEL).sum()),
                "real": int((labels[domain_mask] == REAL_LABEL).sum()),
            }
        return {"name": self.name, "size": len(self.items), "domains": per_domain}
