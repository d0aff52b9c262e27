"""Feature-channel registry: one abstraction from loader to serving artifact.

A *feature channel* is a named, precomputable view of the data that models
consume through ``batch.feature(name)`` — the paper's frozen-PLM activations
(``plm``), handcrafted writing-style (``style``) and dual-emotion
(``emotion``) vectors, or any custom channel a user registers.  Channels are
the only way features are described, from :class:`repro.data.DataLoader`
through ``DataBundle`` and the pipeline manifest to ``serve.Predictor``.

:class:`FeatureChannel` carries the three roles:

* :meth:`extract` — the training/loader path: items + encoded token window
  in, one ``(n, ...)`` array out;
* :meth:`serve` — the serving path: recompute the same values from raw
  request texts (a :class:`ServeRequest` carries texts, the encoded window,
  lazily tokenised token lists and the pipeline's wrapped ``plm`` encode);
* :meth:`to_spec` / ``from_spec`` — the persistence path: a JSON spec the
  pipeline manifest stores, reconstructed through :data:`FEATURE_CHANNELS`
  in any process that performed the same :func:`register_feature_channel`.

Only the channels a model reads are computed: :func:`required_channels`
selects them from a channel list by the models' ``required_features``.

The ``plm`` spec is just ``{"kind": "plm"}``: the manifest stores the encoder
backend once, and :func:`channels_from_specs` binds every ``plm`` spec to it.
Custom channels follow the same two-step custom-model recipe
(``register_model`` + ``register_feature_channel``) to round-trip through
``export_pipeline`` / ``load_pipeline`` — pinned bit-identically in
``tests/serve/test_backend_pipeline.py``.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import NewsItem, default_token_lists
from repro.encoders.backends import EncoderBackend, as_backend
from repro.encoders.features import (
    emotion_features_batch,
    style_features_batch,
)


class FeatureChannelError(RuntimeError):
    """A channel spec is malformed or names an unregistered kind."""


class ServeRequest:
    """Everything a channel may need to recompute features from raw text.

    ``token_lists`` tokenises the *untruncated* raw texts with the default
    whitespace tokenizer exactly once, shared across channels — the same
    contract the training-time ``extract`` uses (it reads ``item.text``, not the
    truncated token window).
    """

    def __init__(self, texts: Sequence[str], token_ids: np.ndarray,
                 mask: np.ndarray, encode_plm: Callable | None = None):
        self.texts = texts
        self.token_ids = token_ids
        self.mask = mask
        self._encode_plm = encode_plm
        self._token_lists: list[list[str]] | None = None

    @property
    def token_lists(self) -> list[list[str]]:
        if self._token_lists is None:
            self._token_lists = default_token_lists(self.texts)
        return self._token_lists

    def encode_plm(self, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The pipeline's ``plm`` encode, wrapped in its retry/circuit policy."""
        if self._encode_plm is None:
            raise FeatureChannelError(
                "this serving context provides no plm encoder; the pipeline "
                "was built without an encoder backend")
        return self._encode_plm(token_ids, mask)


class FeatureChannel(abc.ABC):
    """One named feature view, usable by the loader, the server and the manifest."""

    #: registry key of this channel implementation; subclasses override
    kind: str = ""

    @property
    def name(self) -> str:
        """The key models look up via ``batch.feature(name)`` (default: kind)."""
        return self.kind

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def extract(self, items: Sequence[NewsItem], token_ids: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
        """Training-time extraction: one row per item, batch dimension first."""

    @abc.abstractmethod
    def serve(self, request: ServeRequest) -> np.ndarray:
        """Serving-time extraction from raw request texts."""

    @abc.abstractmethod
    def to_spec(self) -> dict:
        """JSON-serialisable description; must include ``{"kind": self.kind}``."""


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
#: kind -> build_fn(spec) -> FeatureChannel
FEATURE_CHANNELS: dict[str, Callable[[dict], FeatureChannel]] = {}


def register_feature_channel(name: str, build_fn, overwrite: bool = False) -> None:
    """Register a channel kind for spec-based reconstruction.

    ``build_fn`` is either a callable ``spec -> FeatureChannel`` or a
    :class:`FeatureChannel` subclass (its ``from_spec`` classmethod is used).
    A process that registers the same kinds before ``load_pipeline`` can
    round-trip pipelines whose manifests carry custom channel specs.
    """
    if not name:
        raise ValueError("feature channel name must be a non-empty string")
    if not overwrite and name in FEATURE_CHANNELS:
        raise ValueError(f"feature channel '{name}' is already registered "
                         "(pass overwrite=True to replace it)")
    if isinstance(build_fn, type) and issubclass(build_fn, FeatureChannel):
        build_fn = build_fn.from_spec
    if not callable(build_fn):
        raise TypeError("build_fn must be callable or a FeatureChannel subclass")
    FEATURE_CHANNELS[name] = build_fn


def available_feature_channels() -> tuple[str, ...]:
    """Registered channel kinds, sorted."""
    return tuple(sorted(FEATURE_CHANNELS))


def build_feature_channel(spec: dict) -> FeatureChannel:
    """Reconstruct a channel from its :meth:`~FeatureChannel.to_spec`."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FeatureChannelError(
            f"feature channel spec must be a dict with a 'kind' key, got {spec!r}")
    build_fn = FEATURE_CHANNELS.get(spec["kind"])
    if build_fn is None:
        raise FeatureChannelError(
            f"unknown feature channel kind '{spec['kind']}'; registered kinds: "
            f"{list(available_feature_channels())}. Custom channels must call "
            "repro.encoders.register_feature_channel first")
    return build_fn(spec)


def channels_from_specs(specs: Sequence[dict],
                        backend: EncoderBackend) -> list[FeatureChannel]:
    """Build a channel list from manifest specs, binding ``plm`` to ``backend``.

    Every ``plm`` spec binds to the *same* backend instance (the pipeline's),
    so its cache / circuit state stays singular and the encoder is built once.
    """
    return [PLMChannel(backend)
            if isinstance(spec, dict) and spec.get("kind") == PLMChannel.kind
            else build_feature_channel(spec) for spec in specs]


# --------------------------------------------------------------------------- #
# Stock channels                                                               #
# --------------------------------------------------------------------------- #
class PLMChannel(FeatureChannel):
    """Frozen-PLM activations served by any :class:`EncoderBackend`."""

    kind = "plm"

    def __init__(self, backend: EncoderBackend):
        self.backend = as_backend(backend)

    def extract(self, items, token_ids, mask):
        return self.backend.encode(token_ids, mask)

    def serve(self, request: ServeRequest) -> np.ndarray:
        # Through the request's wrapped encode so the pipeline's retry policy
        # and circuit breaker apply; a Pipeline refuses a plm channel whose
        # backend differs from its own, so this is the same encoder.
        return request.encode_plm(request.token_ids, request.mask)

    def to_spec(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_spec(cls, spec: dict) -> "PLMChannel":
        raise FeatureChannelError(
            "a 'plm' spec names no encoder: it binds to the pipeline's encoder "
            "backend through channels_from_specs(specs, backend); pass a "
            "PLMChannel(backend) instance instead")


class StyleChannel(FeatureChannel):
    """Handcrafted writing-style features (:func:`style_features_batch`)."""

    kind = "style"

    def extract(self, items, token_ids, mask):
        return style_features_batch(default_token_lists(
            [item.text for item in items]))

    def serve(self, request: ServeRequest) -> np.ndarray:
        return style_features_batch(request.token_lists)

    def to_spec(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_spec(cls, spec: dict) -> "StyleChannel":
        return cls()


class EmotionChannel(FeatureChannel):
    """Handcrafted dual-emotion features (:func:`emotion_features_batch`)."""

    kind = "emotion"

    def extract(self, items, token_ids, mask):
        return emotion_features_batch(default_token_lists(
            [item.text for item in items]))

    def serve(self, request: ServeRequest) -> np.ndarray:
        return emotion_features_batch(request.token_lists)

    def to_spec(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_spec(cls, spec: dict) -> "EmotionChannel":
        return cls()


register_feature_channel("plm", PLMChannel)
register_feature_channel("style", StyleChannel)
register_feature_channel("emotion", EmotionChannel)

#: the names every stock training loader precomputes, in loader order
STOCK_CHANNELS: tuple[str, ...] = ("plm", "style", "emotion")


def stock_channels(backend: EncoderBackend) -> list[FeatureChannel]:
    """The three stock channels, with ``plm`` bound to ``backend``."""
    return [PLMChannel(backend), StyleChannel(), EmotionChannel()]


def required_channels(channels: Sequence[FeatureChannel],
                      *models) -> list[FeatureChannel]:
    """The ``channels``, in their given order, that some model reads.

    A channel is read when its name appears in some model's
    ``required_features``; ``None`` entries of ``models`` (an absent
    teacher) read nothing.  This is the one rule for what gets computed:
    serving (:attr:`repro.serve.Pipeline.served_channels`) and the streaming
    ring (:class:`repro.streaming.OnlineAdapter`) compute exactly these
    channels and skip the rest.
    """
    read = {name for model in models if model is not None
            for name in model.required_features}
    return [channel for channel in channels if channel.name in read]
