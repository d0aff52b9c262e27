"""Synthetic multi-domain fake-news corpora.

The paper evaluates on Weibo21 (Chinese, nine domains) and on a merged
FakeNewsNet + MM-COVID English corpus (three domains).  Neither corpus can be
downloaded in this offline environment, so this module generates *synthetic*
corpora whose **imbalance structure matches the published statistics**
(Tables I, IV and V of the paper):

* the number of news items per domain and the fake/real ratio per domain are
  reproduced exactly (scaled by ``scale``);
* each item is a bag of symbolic tokens drawn from domain-topic vocabularies,
  shared veracity-signal vocabularies, domain-conditional veracity cues,
  emotion vocabularies and style vocabularies;
* a controllable fraction of items carries *no* shared veracity signal, so a
  model can only classify them from domain-prior information — which is
  exactly the mechanism that creates the domain-bias phenomenon the paper
  studies (high FPR in fake-heavy domains, high FNR in real-heavy domains).

Because of this construction the *shape* of the paper's experiments (who is
biased, what de-biasing does, the performance/bias trade-off) is preserved even
though the text itself is synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.dataset import FAKE_LABEL, REAL_LABEL, MultiDomainNewsDataset, NewsItem


# --------------------------------------------------------------------------- #
# Domain specifications from the paper                                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DomainSpec:
    """Number of fake and real items in one domain (Table IV / Table V)."""

    name: str
    fake: int
    real: int

    @property
    def total(self) -> int:
        return self.fake + self.real

    @property
    def fake_ratio(self) -> float:
        return self.fake / max(self.total, 1)


#: Table IV of the paper — Weibo21 per-domain fake/real counts.
WEIBO21_DOMAIN_SPECS: tuple[DomainSpec, ...] = (
    DomainSpec("science", fake=93, real=143),
    DomainSpec("military", fake=222, real=121),
    DomainSpec("education", fake=248, real=243),
    DomainSpec("disaster", fake=591, real=185),
    DomainSpec("politics", fake=546, real=306),
    DomainSpec("health", fake=515, real=485),
    DomainSpec("finance", fake=362, real=959),
    DomainSpec("entertainment", fake=440, real=1000),
    DomainSpec("society", fake=1471, real=1198),
)

#: Table V of the paper — FakeNewsNet + COVID per-domain fake/real counts.
ENGLISH_DOMAIN_SPECS: tuple[DomainSpec, ...] = (
    DomainSpec("gossipcop", fake=5067, real=16804),
    DomainSpec("politifact", fake=379, real=447),
    DomainSpec("covid", fake=1317, real=4750),
)


# --------------------------------------------------------------------------- #
# Corpus configuration                                                         #
# --------------------------------------------------------------------------- #
@dataclass
class SyntheticCorpusConfig:
    """Knobs of the generative process.

    ``signal_strength`` is the probability that an item contains tokens from
    the *shared* veracity-signal vocabulary (learnable without domain
    information).  ``domain_cue_strength`` is the probability of a weaker
    *domain-conditional* cue.  Items with neither can only be classified from
    the domain prior, which is what biased models end up doing.
    """

    name: str = "synthetic"
    domain_specs: tuple[DomainSpec, ...] = WEIBO21_DOMAIN_SPECS
    scale: float = 1.0
    seed: int = 2024
    topic_vocab_size: int = 40
    shared_signal_vocab_size: int = 24
    domain_cue_vocab_size: int = 10
    emotion_vocab_size: int = 12
    style_vocab_size: int = 8
    common_vocab_size: int = 60
    signal_strength: float = 0.78
    domain_cue_strength: float = 0.40
    emotion_strength: float = 0.65
    #: probability that the emotion / style tokens agree with the true label;
    #: below 1.0 they are helpful-but-noisy cues, so models cannot solve the
    #: ambiguous items from emotion alone and the domain-prior bias appears in
    #: every baseline (as in the paper).
    emotion_label_consistency: float = 0.78
    style_label_consistency: float = 0.75
    mean_topic_tokens: int = 9
    mean_secondary_tokens: int = 3
    mean_common_tokens: int = 5
    min_items_per_cell: int = 4
    domain_affinity_temperature: float = 1.0

    def scaled_specs(self) -> list[DomainSpec]:
        """Return domain specs with counts multiplied by ``scale`` (floored)."""
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        scaled = []
        for spec in self.domain_specs:
            fake = max(self.min_items_per_cell, int(round(spec.fake * self.scale)))
            real = max(self.min_items_per_cell, int(round(spec.real * self.scale)))
            scaled.append(DomainSpec(spec.name, fake=fake, real=real))
        return scaled


@dataclass
class CaseStudyItem:
    """A probe news item for the Figure-3 style case study."""

    item: NewsItem
    description: str = ""
    expected_bias: str = ""
    metadata: dict = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Generator                                                                    #
# --------------------------------------------------------------------------- #
class SyntheticNewsGenerator:
    """Generates a :class:`MultiDomainNewsDataset` from a corpus configuration."""

    def __init__(self, config: SyntheticCorpusConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._specs = config.scaled_specs()
        self._num_domains = len(self._specs)
        self._affinity = self._build_domain_affinity()
        self._zipf: dict[int, np.ndarray] = {}  # vocabulary size -> Zipf weights

    # ------------------------------------------------------------------ #
    # Vocabulary helpers                                                   #
    # ------------------------------------------------------------------ #
    def _topic_token(self, domain: int, index: int) -> str:
        return f"{self._specs[domain].name}_topic{index}"

    def _shared_signal_token(self, label: int, index: int) -> str:
        prefix = "fakesig" if label == FAKE_LABEL else "realsig"
        return f"{prefix}{index}"

    def _domain_cue_token(self, domain: int, label: int, index: int) -> str:
        prefix = "fakecue" if label == FAKE_LABEL else "realcue"
        return f"{self._specs[domain].name}_{prefix}{index}"

    def _emotion_token(self, label: int, index: int) -> str:
        prefix = "emo_arousal" if label == FAKE_LABEL else "emo_neutral"
        return f"{prefix}{index}"

    def _style_token(self, label: int, index: int) -> str:
        prefix = "style_sensational" if label == FAKE_LABEL else "style_formal"
        return f"{prefix}{index}"

    def _common_token(self, index: int) -> str:
        return f"common{index}"

    # ------------------------------------------------------------------ #
    # Domain affinity: which other domains a news item may also relate to  #
    # ------------------------------------------------------------------ #
    def _build_domain_affinity(self) -> np.ndarray:
        """Ring-structured affinity so neighbouring domains overlap in content.

        The paper stresses that a news item can relate to several domains with
        different degrees of relevance (Section IV-B-2); the affinity matrix
        realises that property for the generator.
        """
        n = self._num_domains
        distance = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        distance = np.minimum(distance, n - distance)
        affinity = np.exp(-distance / max(self.config.domain_affinity_temperature, 1e-6))
        np.fill_diagonal(affinity, 0.0)
        affinity /= affinity.sum(axis=1, keepdims=True)
        return affinity

    # ------------------------------------------------------------------ #
    # Item generation                                                      #
    # ------------------------------------------------------------------ #
    def _zipf_choice(self, vocab_size: int, count: int) -> np.ndarray:
        probabilities = self._zipf.get(vocab_size)
        if probabilities is None:
            probabilities = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64)
            probabilities /= probabilities.sum()
            self._zipf[vocab_size] = probabilities
        return self._rng.choice(vocab_size, size=count, p=probabilities)

    def _generate_item(self, domain: int, label: int, item_id: int,
                       force_ambiguous: bool = False) -> NewsItem:
        cfg = self.config
        rng = self._rng
        tokens: list[str] = []

        # Primary-domain topic tokens.
        n_topic = max(3, rng.poisson(cfg.mean_topic_tokens))
        tokens.extend(self._topic_token(domain, i)
                      for i in self._zipf_choice(cfg.topic_vocab_size, n_topic))

        # Secondary-domain topic tokens (fuzzy domain membership).
        secondary = int(rng.choice(self._num_domains, p=self._affinity[domain]))
        n_secondary = rng.poisson(cfg.mean_secondary_tokens)
        tokens.extend(self._topic_token(secondary, i)
                      for i in self._zipf_choice(cfg.topic_vocab_size, n_secondary))

        # Shared veracity signal (the content cue a de-biased model should use).
        has_signal = (not force_ambiguous) and rng.random() < cfg.signal_strength
        if has_signal:
            n_signal = rng.integers(3, 6)
            tokens.extend(self._shared_signal_token(label, i)
                          for i in rng.integers(0, cfg.shared_signal_vocab_size, n_signal))

        # Weaker domain-conditional veracity cue.
        has_domain_cue = (not force_ambiguous) and rng.random() < cfg.domain_cue_strength
        if has_domain_cue:
            n_cue = rng.integers(1, 3)
            tokens.extend(self._domain_cue_token(domain, label, i)
                          for i in rng.integers(0, cfg.domain_cue_vocab_size, n_cue))

        # Emotion tokens (fake news skews towards high-arousal emotion, noisily).
        if rng.random() < cfg.emotion_strength:
            emotion_label = label if rng.random() < cfg.emotion_label_consistency else 1 - label
            n_emotion = rng.integers(1, 4)
            tokens.extend(self._emotion_token(emotion_label, i)
                          for i in rng.integers(0, cfg.emotion_vocab_size, n_emotion))

        # Style tokens (noisy cue as well).
        style_label = label if rng.random() < cfg.style_label_consistency else 1 - label
        n_style = rng.integers(1, 3)
        tokens.extend(self._style_token(style_label, i)
                      for i in rng.integers(0, cfg.style_vocab_size, n_style))

        # Common / function tokens.
        n_common = max(2, rng.poisson(cfg.mean_common_tokens))
        tokens.extend(self._common_token(i)
                      for i in rng.integers(0, cfg.common_vocab_size, n_common))

        rng.shuffle(tokens)
        return NewsItem(
            text=" ".join(tokens),
            label=label,
            domain=domain,
            domain_name=self._specs[domain].name,
            item_id=item_id,
            metadata={
                "has_signal": bool(has_signal),
                "has_domain_cue": bool(has_domain_cue),
                "secondary_domain": self._specs[secondary].name,
            },
        )

    # ------------------------------------------------------------------ #
    # Public API                                                           #
    # ------------------------------------------------------------------ #
    def generate(self) -> MultiDomainNewsDataset:
        """Generate the full corpus with the configured per-domain counts."""
        items: list[NewsItem] = []
        item_id = 0
        for domain, spec in enumerate(self._specs):
            for label, count in ((FAKE_LABEL, spec.fake), (REAL_LABEL, spec.real)):
                for _ in range(count):
                    items.append(self._generate_item(domain, label, item_id))
                    item_id += 1
        order = self._rng.permutation(len(items))
        items = [items[i] for i in order]
        domain_names = [spec.name for spec in self._specs]
        return MultiDomainNewsDataset(items, domain_names, name=self.config.name)

    def sample_item(self, domain_name: str, label: int, item_id: int,
                    force_ambiguous: bool = False) -> NewsItem:
        """One extra item from a configured domain (stream-schedule hook).

        Draws from the generator's single RNG stream, so a schedule built by
        interleaving :meth:`sample_item` calls after :meth:`generate` is
        deterministic from the corpus seed.  ``force_ambiguous=True`` drops
        the shared veracity signal *and* the domain cue — the item is then
        classifiable only from its domain prior, which is how the drift
        scenarios manufacture windows whose error rates diverge.
        """
        names = [spec.name for spec in self._specs]
        if domain_name not in names:
            raise ValueError(
                f"unknown domain '{domain_name}'; configured domains: {names}")
        return self._generate_item(names.index(domain_name), label, item_id,
                                   force_ambiguous=force_ambiguous)

    def sample_novel_item(self, name: str, label: int, item_id: int,
                          domain: int = -1) -> NewsItem:
        """An item from a domain that did not exist at corpus-build time.

        Topic tokens are ``{name}_topic{i}`` — out-of-vocabulary for any
        vocabulary built before onboarding, so they encode to UNK — while the
        shared veracity signal, emotion, style and common tokens come from
        the in-vocab pools: the only learnable content is the cross-domain
        signal, exactly the situation a few-shot onboarded domain is in.
        ``domain`` is the integer index the caller assigned the new domain
        (unknown to this generator's specs).
        """
        cfg = self.config
        rng = self._rng
        tokens: list[str] = []
        n_topic = max(3, rng.poisson(cfg.mean_topic_tokens))
        tokens.extend(f"{name}_topic{i}"
                      for i in self._zipf_choice(cfg.topic_vocab_size, n_topic))
        n_signal = rng.integers(3, 6)
        tokens.extend(self._shared_signal_token(label, i)
                      for i in rng.integers(0, cfg.shared_signal_vocab_size, n_signal))
        if rng.random() < cfg.emotion_strength:
            emotion_label = label if rng.random() < cfg.emotion_label_consistency else 1 - label
            tokens.extend(self._emotion_token(emotion_label, i)
                          for i in rng.integers(0, cfg.emotion_vocab_size,
                                                rng.integers(1, 4)))
        style_label = label if rng.random() < cfg.style_label_consistency else 1 - label
        tokens.extend(self._style_token(style_label, i)
                      for i in rng.integers(0, cfg.style_vocab_size,
                                            rng.integers(1, 3)))
        n_common = max(2, rng.poisson(cfg.mean_common_tokens))
        tokens.extend(self._common_token(i)
                      for i in rng.integers(0, cfg.common_vocab_size, n_common))
        rng.shuffle(tokens)
        return NewsItem(
            text=" ".join(tokens),
            label=label,
            domain=domain,
            domain_name=name,
            item_id=item_id,
            metadata={"novel_domain": True},
        )

    def generate_case_study(self) -> list[CaseStudyItem]:
        """Probe items mirroring the three cases of Figure 3.

        Each probe is a *real* news item without a shared veracity signal from a
        domain whose prior strongly disagrees with its label, so biased models
        tend to misclassify it while a de-biased model should not.
        """
        probes: list[CaseStudyItem] = []
        wanted = [
            ("entertainment", REAL_LABEL,
             "Real entertainment news (fake-light domain, ambiguous content)",
             "domain prior pushes prediction towards real with low confidence"),
            ("politics", REAL_LABEL,
             "Real politics news (fake-heavy domain, ambiguous content)",
             "domain prior pushes prediction towards fake"),
            ("disaster", REAL_LABEL,
             "Real disaster news (fake-heavy domain, ambiguous content)",
             "domain prior pushes prediction towards fake"),
        ]
        names = [spec.name for spec in self._specs]
        for position, (domain_name, label, description, bias) in enumerate(wanted):
            if domain_name not in names:
                domain_name = names[position % len(names)]
            domain = names.index(domain_name)
            item = self._generate_item(domain, label, item_id=10_000_000 + position,
                                       force_ambiguous=True)
            probes.append(CaseStudyItem(item=item, description=description,
                                        expected_bias=bias))
        return probes


# --------------------------------------------------------------------------- #
# Convenience constructors                                                     #
# --------------------------------------------------------------------------- #
def make_weibo21_like(scale: float = 1.0, seed: int = 2024,
                      **overrides) -> MultiDomainNewsDataset:
    """Synthetic corpus with the Weibo21 (Table IV) imbalance structure."""
    config = SyntheticCorpusConfig(name="weibo21-like", domain_specs=WEIBO21_DOMAIN_SPECS,
                                   scale=scale, seed=seed)
    config = replace(config, **overrides) if overrides else config
    return SyntheticNewsGenerator(config).generate()


def make_english_like(scale: float = 1.0, seed: int = 2024,
                      **overrides) -> MultiDomainNewsDataset:
    """Synthetic corpus with the FakeNewsNet+COVID (Table V) imbalance structure."""
    config = SyntheticCorpusConfig(name="english-like", domain_specs=ENGLISH_DOMAIN_SPECS,
                                   scale=scale, seed=seed)
    config = replace(config, **overrides) if overrides else config
    return SyntheticNewsGenerator(config).generate()


def make_case_study_probes(dataset_seed: int = 2024,
                           specs: tuple[DomainSpec, ...] = WEIBO21_DOMAIN_SPECS,
                           scale: float = 1.0) -> list[CaseStudyItem]:
    """Case-study probes drawn from the same generative process as the corpus."""
    config = SyntheticCorpusConfig(name="case-study", domain_specs=specs,
                                   scale=scale, seed=dataset_seed + 7)
    return SyntheticNewsGenerator(config).generate_case_study()
