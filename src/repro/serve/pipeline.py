"""The pipeline artifact: one bundle holding everything inference needs.

Artifact layout (one directory per pipeline)::

    detector/
      manifest.json   # format version, model name + ModelConfig, dtype,
                      # tokenizer spec, encoder-backend spec, max_length,
                      # domain names, feature-channel specs, labels, metadata
      weights.bin     # weights container (repro.nn.save_checkpoint)
      vocab.json      # token list in id order (Vocabulary.to_spec)
      checksums.json  # SHA-256 of the three files above, written last

Everything in the manifest is a *spec*, not a pickle: the tokenizer and the
encoder backend are reconstructed from their constructor arguments (the
frozen encoder's weights are deterministic functions of its seed), the
feature channels through the :data:`repro.encoders.FEATURE_CHANNELS`
registry and the model through :func:`repro.models.build_model` — so a
pipeline saved for a detector or channel registered via
:func:`repro.models.register_model` / :func:`repro.encoders.register_feature_channel`
loads in any process that performs the same registrations first.

Format version 3 holds one representation of each: ``encoder_backend`` is
the backend's ``to_spec()``, ``feature_channels`` the list of channel specs,
whose ``plm`` entry (``{"kind": "plm"}``) binds to that backend, and the
weights are the flat container of :mod:`repro.nn.serialization`.  Older
artifacts are refused with a hint to re-export them.

Exports are incremental: :func:`write_artifact` builds each file's bytes
and digest once, rewrites only the files whose bytes on disk differ (so a
re-export after an adaptation lands ``weights.bin`` and ``checksums.json``,
and a damaged file is repaired), and syncs the directory once after the data
files and once after the sidecar.

:func:`check_artifact` is the one checksum check: it reads every recorded
file once and reports each one's status.  :func:`verify_pipeline`, ``repro
verify`` and :func:`load_pipeline` all use it; loading then parses the same
bytes, restores the model under the pipeline's dtype policy and loads the
weights bit-for-bit, so a loaded pipeline reproduces the exporting model's
probabilities exactly (pinned by ``tests/serve/test_pipeline.py`` in both
``REPRO_DTYPE``\\ s).  The container's bytes depend only on the weights, so
:meth:`Pipeline.fingerprint` is stable across replays and round-trips.  A hot
reload (``load_pipeline(path, reuse=served)``) still verifies every file, but
when the manifest and vocabulary digests are those the served pipeline was
loaded from it shares that pipeline's vocabulary, tokenizer, encoder backend
and channels instead of rebuilding them; the model is always rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro._version import __version__
from repro.data.dataset import LABEL_NAMES
from repro.data.tokenizer import WhitespaceTokenizer, tokenizer_from_spec
from repro.data.vocab import Vocabulary
from repro.encoders.backends import (
    EncoderBackend,
    EncoderBackendError,
    as_backend,
    backend_from_spec,
)
from repro.encoders.channels import (
    FeatureChannel,
    FeatureChannelError,
    PLMChannel,
    channels_from_specs,
    required_channels,
    stock_channels,
)
from repro.encoders.pretrained import FrozenPretrainedEncoder
from repro.models.base import FakeNewsDetector, ModelConfig
from repro.models.registry import build_model, registry_name
from repro.nn.serialization import checkpoint_bytes, restore_checkpoint
from repro.reliability.durable import read_bytes, sha256_bytes, write_changed_files
from repro.tensor import default_dtype

#: Bump when the artifact layout changes incompatibly.
PIPELINE_FORMAT_VERSION = 3

MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.bin"
VOCAB_FILE = "vocab.json"
#: Sidecar mapping each artifact file to its SHA-256, written last so a
#: crash mid-save leaves a missing (detectable) sidecar, never a stale one
#: blessing partial content.
CHECKSUMS_FILE = "checksums.json"


class PipelineError(RuntimeError):
    """A pipeline artifact is missing, malformed or incompatible."""


@dataclass(frozen=True)
class ArtifactDigests:
    """The content digests of one artifact, as written or as verified."""

    #: SHA-256 per file name — exactly what ``checksums.json`` records
    files: dict
    #: :meth:`Pipeline.fingerprint` of the state the files hold
    fingerprint: str


def _fingerprint(manifest: dict, weights_digest: str) -> str:
    """16-hex digest of a manifest document plus the SHA-256 of its weights."""
    digest = hashlib.sha256()
    digest.update(json.dumps(manifest, sort_keys=True).encode("utf-8"))
    digest.update(weights_digest.encode("ascii"))
    return digest.hexdigest()[:16]


def _model_dtype(model: FakeNewsDetector) -> str:
    """The dtype the model's parameters currently live in (no copies made)."""
    for _, parameter in model._all_parameters_even_frozen():
        return str(parameter.data.dtype)
    raise PipelineError(f"{type(model).__name__} has no parameters to serve")


@dataclass
class Pipeline:
    """A servable bundle: model, vocabulary, tokenizer, encoder, channels, dtype.

    Build one with :meth:`from_training` (deriving the registry name and the
    dtype from the model itself), persist it with :meth:`save` and restore it
    with :func:`load_pipeline`.  :meth:`predictor` attaches the raw-text
    inference front-end.  The channels must include every one the model
    lists in ``required_features``; serving computes exactly those
    (:attr:`served_channels`).  Every ``plm`` channel must be bound to
    ``encoder`` (same backend fingerprint): serving computes ``plm`` through
    the pipeline's encoder, so a channel bound elsewhere would be scored on
    the wrong features.
    """

    model_name: str
    model: FakeNewsDetector
    model_config: ModelConfig
    vocab: Vocabulary
    tokenizer: WhitespaceTokenizer
    #: Accepts a raw :class:`FrozenPretrainedEncoder` (wrapped into the
    #: default ``local`` backend) or any :class:`EncoderBackend`; after
    #: ``__post_init__`` this is always a backend.
    encoder: "FrozenPretrainedEncoder | EncoderBackend"
    max_length: int
    domain_names: list[str]
    dtype: str
    #: The :class:`FeatureChannel` objects the manifest records, in order;
    #: ``None`` means :func:`~repro.encoders.stock_channels` of ``encoder``.
    #: After ``__post_init__`` this is always a list.
    channels: "list[FeatureChannel] | None" = None
    metadata: dict = field(default_factory=dict)
    #: Directory this pipeline was loaded from (set by :func:`load_pipeline`;
    #: ``None`` for in-memory pipelines).  ``Predictor.health`` re-verifies
    #: the artifact's checksums through it.
    source_path: str | None = None
    #: The verified digests of the files this pipeline was loaded from (set
    #: by :func:`load_pipeline`).  They describe the artifact, not the
    #: current state: :meth:`fingerprint` always recomputes.
    source_digests: ArtifactDigests | None = None

    def __post_init__(self):
        try:
            self.encoder = as_backend(self.encoder)
        except EncoderBackendError as error:
            raise PipelineError(str(error)) from error
        if self.encoder.vocab_size != len(self.vocab):
            raise PipelineError(
                f"frozen encoder was built for a vocabulary of {self.encoder.vocab_size} "
                f"tokens but the pipeline vocabulary has {len(self.vocab)}; the encoder "
                "must be the one the model was trained against")
        if len(self.domain_names) < self.model_config.num_domains:
            raise PipelineError(
                f"model expects {self.model_config.num_domains} domains but only "
                f"{len(self.domain_names)} domain names were provided")
        if self.channels is None:
            self.channels = stock_channels(self.encoder)
        names = [channel.name for channel in self.channels]
        for name in names:
            if names.count(name) > 1:
                raise PipelineError(
                    f"feature channel '{name}' is listed more than once; each "
                    "channel name must be unique")
        missing = [name for name in self.model.required_features
                   if name not in names]
        if missing:
            raise PipelineError(
                f"model '{self.model_name}' reads feature channels {missing} "
                f"that the pipeline does not provide (it has {names}); pass "
                "channels that include them")
        for channel in self.channels:
            if (isinstance(channel, PLMChannel) and channel.backend is not self.encoder
                    and channel.backend.fingerprint() != self.encoder.fingerprint()):
                raise PipelineError(
                    f"plm channel is bound to encoder backend "
                    f"'{channel.backend.kind}' (fingerprint "
                    f"{channel.backend.fingerprint()}) but the pipeline serves "
                    f"'{self.encoder.kind}' (fingerprint "
                    f"{self.encoder.fingerprint()}); serving would compute plm "
                    "with the pipeline's encoder — bind the channel to it")
        self.model.eval()

    @property
    def served_channels(self) -> "list[FeatureChannel]":
        """The channels serving computes: those the model reads, in order.

        :func:`~repro.encoders.required_channels` of :attr:`channels` and
        the model; the manifest still records every channel.
        """
        return required_channels(self.channels, self.model)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_training(cls, model: FakeNewsDetector, vocab: Vocabulary,
                      encoder: "FrozenPretrainedEncoder | EncoderBackend", *,
                      tokenizer: WhitespaceTokenizer | None = None,
                      max_length: int = 24,
                      domain_names: list[str] | None = None,
                      model_name: str | None = None,
                      channels: "list[FeatureChannel] | None" = None,
                      metadata: dict | None = None) -> "Pipeline":
        """Bundle a trained detector with its training-time state.

        ``model_name`` defaults to the registry key of the model's class
        (:func:`repro.models.registry_name`), ``dtype`` to the dtype of the
        model's parameters, ``domain_names`` to ``domain_0 .. domain_{n-1}``,
        ``channels`` to :func:`~repro.encoders.stock_channels` of ``encoder``.
        ``max_length`` must be the length the training loaders encoded with —
        serving pads to it, so a mismatch silently shifts probabilities.

        ``encoder`` may be a bare :class:`FrozenPretrainedEncoder` (wrapped
        into the default ``local`` backend) or any :class:`EncoderBackend`.
        ``channels`` passes the :class:`FeatureChannel` objects the model
        trained against (e.g. ``DataBundle.channels``), so registered
        *custom* channels round-trip through the artifact.
        """
        if domain_names is None:
            domain_names = [f"domain_{i}" for i in range(model.config.num_domains)]
        return cls(
            model_name=model_name or registry_name(model),
            model=model,
            model_config=model.config,
            vocab=vocab,
            tokenizer=tokenizer or WhitespaceTokenizer(),
            encoder=encoder,
            max_length=max_length,
            domain_names=list(domain_names),
            dtype=_model_dtype(model),
            channels=channels,
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------------ #
    def manifest(self) -> dict:
        """The JSON document :func:`save_pipeline` writes as ``manifest.json``."""
        return {
            "format_version": PIPELINE_FORMAT_VERSION,
            "repro_version": __version__,
            "model": {"name": self.model_name, "config": self.model_config.to_dict()},
            "dtype": self.dtype,
            "max_length": self.max_length,
            "domain_names": list(self.domain_names),
            "tokenizer": self.tokenizer.to_spec(),
            "encoder_backend": self.encoder.to_spec(),
            "feature_channels": [channel.to_spec() for channel in self.channels],
            "labels": list(LABEL_NAMES),
            "metadata": self.metadata,
        }

    def fingerprint(self) -> str:
        """16-hex content digest of this pipeline: the manifest plus the weights digest.

        The weights digest is the SHA-256 of the exact ``weights.bin`` bytes
        :func:`save_pipeline` writes (and ``checksums.json`` records), which
        depend only on the parameters — so the fingerprint is stable across
        replays of the same deterministic run and unchanged by a save/load
        round-trip.  Serving exposes it so operators can see *which* weights a
        predictor is holding after a hot reload.
        """
        return _fingerprint(self.manifest(),
                            sha256_bytes(checkpoint_bytes(self.model)))

    def save(self, path: str | os.PathLike) -> str:
        return save_pipeline(self, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Pipeline":
        return load_pipeline(path)

    def predictor(self, **kwargs) -> "Predictor":
        """A :class:`repro.serve.Predictor` bound to this pipeline."""
        from repro.serve.predictor import Predictor

        return Predictor(self, **kwargs)


def write_artifact(pipeline: Pipeline, path: str | os.PathLike) -> ArtifactDigests:
    """Write ``pipeline`` as a directory artifact at ``path``; returns its digests.

    Each file's bytes and SHA-256 are computed once.  A file whose bytes on
    disk are already the new ones is kept, every other one is written
    atomically and fsynced; the directory is synced once after the data
    files and once after the ``checksums.json`` sidecar, which lands *last*.
    So a crash at any moment leaves either a complete, verifiable artifact or
    one whose damage is detectable, never a silently inconsistent bundle.
    The returned fingerprint equals :meth:`Pipeline.fingerprint` of the
    state written.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    manifest = pipeline.manifest()
    files = {
        WEIGHTS_FILE: checkpoint_bytes(pipeline.model),
        VOCAB_FILE: (json.dumps(pipeline.vocab.to_spec()) + "\n").encode("utf-8"),
        MANIFEST_FILE: (json.dumps(manifest, indent=2, sort_keys=True)
                        + "\n").encode("utf-8"),
    }
    checksums = {name: sha256_bytes(data) for name, data in files.items()}
    write_changed_files(path, files)
    write_changed_files(path, {CHECKSUMS_FILE: (
        json.dumps(checksums, indent=2, sort_keys=True) + "\n").encode("utf-8")})
    return ArtifactDigests(checksums, _fingerprint(manifest, checksums[WEIGHTS_FILE]))


def save_pipeline(pipeline: Pipeline, path: str | os.PathLike) -> str:
    """Write ``pipeline`` as a directory artifact at ``path``; returns the path.

    See :func:`write_artifact`, which also returns the artifact's digests.
    """
    write_artifact(pipeline, path)
    return os.fspath(path)


@dataclass(frozen=True)
class FileCheck:
    """One artifact file checked against its ``checksums.json`` entry."""

    name: str
    expected: str
    #: SHA-256 of the bytes on disk; ``None`` when the file is missing
    actual: str | None
    #: the bytes that were hashed, for callers that go on to parse them
    data: bytes | None = field(default=None, repr=False)

    @property
    def status(self) -> str:
        """``"ok"``, ``"CORRUPT"`` or ``"MISSING"``."""
        if self.actual is None:
            return "MISSING"
        return "ok" if self.actual == self.expected else "CORRUPT"


def check_artifact(path: str | os.PathLike) -> list[FileCheck]:
    """Read every file ``checksums.json`` records, once, and check its digest.

    Returns one :class:`FileCheck` per recorded file, in name order; damage
    to those files is *reported*, not raised.  Raises :class:`PipelineError`
    (one line) when the checks cannot even start: no artifact, no sidecar
    (the export did not finish), a sidecar that is unreadable or not a JSON
    object, one with an entry that is not a plain file name inside the
    artifact or whose digest is not a string, one from an older format, or
    one that does not cover the manifest, the weights and the vocabulary.
    """
    path = os.fspath(path)
    sidecar = os.path.join(path, CHECKSUMS_FILE)
    if not os.path.exists(sidecar):
        if not os.path.exists(os.path.join(path, MANIFEST_FILE)):
            raise PipelineError(
                f"no pipeline artifact at '{path}' (missing {MANIFEST_FILE}); "
                "expected a directory written by repro.serve.save_pipeline")
        raise PipelineError(
            f"pipeline at '{path}' records no checksums (no {CHECKSUMS_FILE}); "
            "the export did not finish — re-export it")
    try:
        recorded = json.loads(read_bytes(sidecar, kind="pipeline"))
    except (OSError, ValueError) as error:
        raise PipelineError(
            f"cannot read {CHECKSUMS_FILE} in '{path}' ({error}); the artifact "
            "is corrupt — re-export it") from error
    if not isinstance(recorded, dict):
        raise PipelineError(
            f"pipeline at '{path}' has a {CHECKSUMS_FILE} that is not a JSON "
            "object; the artifact is corrupt — re-export it")
    for name, expected in recorded.items():
        if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
            raise PipelineError(
                f"pipeline at '{path}' has a {CHECKSUMS_FILE} entry {name!r} that "
                "is not a file name inside the artifact; the artifact is "
                "corrupt — re-export it")
        if not isinstance(expected, str):
            raise PipelineError(
                f"pipeline at '{path}' has a {CHECKSUMS_FILE} entry {name!r} whose "
                "digest is not a string; the artifact is corrupt — re-export it")
    if "weights.npz" in recorded:
        raise PipelineError(
            f"pipeline at '{path}' is an older artifact (weights.npz, format "
            f"version 2 or earlier), but this build reads only version "
            f"{PIPELINE_FORMAT_VERSION}; "
            "re-export it with this build")
    unlisted = [name for name in (MANIFEST_FILE, WEIGHTS_FILE, VOCAB_FILE)
                if name not in recorded]
    if unlisted:
        raise PipelineError(
            f"pipeline at '{path}' has a {CHECKSUMS_FILE} that does not cover "
            f"{unlisted}; the artifact cannot be verified — re-export it")
    checks = []
    for name, expected in sorted(recorded.items()):
        try:
            data = read_bytes(os.path.join(path, name), kind="pipeline")
        except FileNotFoundError:
            checks.append(FileCheck(name, expected, None))
            continue
        except OSError as error:
            raise PipelineError(
                f"pipeline at '{path}' has an unreadable {name} ({error})") from error
        checks.append(FileCheck(name, expected, sha256_bytes(data), data))
    return checks


def _verified(path: str) -> dict[str, FileCheck]:
    """:func:`check_artifact`, refusing any damage; keyed by file name."""
    checks = check_artifact(path)
    damaged = [check.name for check in checks if check.status != "ok"]
    if damaged:
        raise PipelineError(
            f"pipeline at '{path}' is corrupted (checksum mismatch) in: "
            f"{damaged}; the artifact was damaged after export — re-export it")
    return {check.name: check for check in checks}


def verify_pipeline(path: str | os.PathLike) -> dict[str, str]:
    """Verify the artifact's recorded checksums; returns ``{file: digest}``.

    Raises :class:`PipelineError` naming every damaged or missing file, or
    when :func:`check_artifact` cannot start.
    """
    return {name: check.expected for name, check in _verified(os.fspath(path)).items()}


def export_pipeline(model: FakeNewsDetector, path: str | os.PathLike, *,
                    vocab: Vocabulary,
                    encoder: "FrozenPretrainedEncoder | EncoderBackend",
                    tokenizer: WhitespaceTokenizer | None = None,
                    max_length: int = 24,
                    domain_names: list[str] | None = None,
                    model_name: str | None = None,
                    channels: "list[FeatureChannel] | None" = None,
                    metadata: dict | None = None) -> str:
    """One-call export: bundle a trained model and write the artifact.

    This is the primitive behind ``Trainer.export_pipeline`` /
    ``DTDBDTrainer.export_pipeline`` and
    :func:`repro.experiments.export_pipeline`; returns the artifact path.
    """
    pipeline = Pipeline.from_training(
        model, vocab, encoder, tokenizer=tokenizer, max_length=max_length,
        domain_names=domain_names, model_name=model_name,
        channels=channels, metadata=metadata)
    return save_pipeline(pipeline, path)


def read_manifest(path: str | os.PathLike) -> dict:
    """Read an artifact's ``manifest.json`` and check its format version.

    Raises :class:`PipelineError` when the manifest is missing, unreadable or
    of a format version this build does not read.
    """
    path = os.fspath(path)
    try:
        data = read_bytes(os.path.join(path, MANIFEST_FILE), kind="pipeline")
    except OSError as error:
        raise PipelineError(
            f"no readable pipeline manifest at '{path}' ({error}); expected a "
            "directory written by repro.serve.save_pipeline") from error
    return _parse_manifest(data, path)


def _parse_manifest(data: bytes, path: str) -> dict:
    try:
        manifest = json.loads(data)
    except ValueError as error:
        raise PipelineError(
            f"pipeline at '{path}' has an unreadable manifest ({error}); "
            "re-export it") from error
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != PIPELINE_FORMAT_VERSION:
        raise PipelineError(
            f"pipeline at '{path}' has format version {version!r}, but this "
            f"build reads only version {PIPELINE_FORMAT_VERSION}; re-export it "
            "with this build")
    return manifest


def _shares_parts(reuse: Pipeline | None, digests: dict) -> bool:
    """Whether ``reuse`` was loaded from this manifest and vocabulary."""
    source = reuse.source_digests if reuse is not None else None
    return source is not None and all(
        source.files.get(name) == digests[name] for name in (MANIFEST_FILE, VOCAB_FILE))


def load_pipeline(path: str | os.PathLike, *, reuse: Pipeline | None = None) -> Pipeline:
    """Restore a pipeline saved by :func:`save_pipeline`.

    Each file is read once and checked against ``checksums.json`` before
    anything is parsed.  The model is rebuilt with
    :func:`repro.models.build_model` under the pipeline's dtype policy and the
    saved weights are loaded bit-for-bit, so no training-time state beyond the
    artifact (and, for custom detectors or channels, the same registration
    calls) is needed.

    ``reuse`` is the pipeline a hot reload replaces.  When the verified
    manifest and vocabulary digests equal those it was loaded from, its
    vocabulary, tokenizer, encoder backend and channels are shared instead of
    parsed and rebuilt; the model is always a fresh one, so ``reuse`` is
    never mutated.
    """
    path = os.fspath(path)
    checks = _verified(path)
    files = {name: check.data for name, check in checks.items()}
    digests = {name: check.expected for name, check in checks.items()}
    manifest = _parse_manifest(files[MANIFEST_FILE], path)
    try:
        if _shares_parts(reuse, digests):
            vocab, tokenizer, encoder = reuse.vocab, reuse.tokenizer, reuse.encoder
            channels = list(reuse.channels)
        else:
            vocab = Vocabulary.from_spec(json.loads(files[VOCAB_FILE]))
            tokenizer = tokenizer_from_spec(manifest["tokenizer"])
            encoder = backend_from_spec(manifest["encoder_backend"])
            channels = channels_from_specs(manifest["feature_channels"], encoder)
        model_name = manifest["model"]["name"]
        model_config = ModelConfig.from_dict(manifest["model"]["config"])
        dtype = manifest["dtype"]
    except EncoderBackendError as error:
        raise PipelineError(
            f"pipeline at '{path}' needs an encoder backend this process "
            f"cannot build: {error}") from error
    except FeatureChannelError as error:
        raise PipelineError(
            f"pipeline at '{path}' needs a feature channel this process "
            f"cannot build: {error}") from error
    except (KeyError, ValueError, TypeError) as error:
        # Unknown tokenizer kinds, corrupt specs: surface them all as the
        # documented "malformed artifact" error class.
        raise PipelineError(f"pipeline at '{path}' is malformed: {error}") from error

    with default_dtype(dtype):
        try:
            model = build_model(model_name, model_config)
        except KeyError as error:
            raise PipelineError(
                f"pipeline at '{path}' needs model '{model_name}', which is not in "
                "the registry in this process; call repro.models.register_model("
                f"'{model_name}', <class>) before load_pipeline") from error
        try:
            restore_checkpoint(model, files[WEIGHTS_FILE],
                               os.path.join(path, WEIGHTS_FILE))
        except (KeyError, ValueError) as error:
            raise PipelineError(
                f"pipeline at '{path}' has unloadable weights: {error}") from error

    return Pipeline(
        model_name=model_name,
        model=model,
        model_config=model_config,
        vocab=vocab,
        tokenizer=tokenizer,
        encoder=encoder,
        max_length=int(manifest["max_length"]),
        domain_names=list(manifest["domain_names"]),
        dtype=dtype,
        channels=channels,
        metadata=dict(manifest.get("metadata", {})),
        source_path=path,
        source_digests=ArtifactDigests(
            digests, _fingerprint(manifest, digests[WEIGHTS_FILE])),
    )
