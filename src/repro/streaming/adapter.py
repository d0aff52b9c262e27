"""Incremental student adaptation and continual domain onboarding.

The :class:`OnlineAdapter` owns the *training copy* of the served model: its
``pipeline.model`` is fine-tuned in place, and every adaptation ends with an
atomic checksummed re-export of the pipeline artifact (via
:func:`repro.serve.write_artifact` / ``reliability.durable``, which rewrites
only the files that changed) that a :class:`repro.serve.Predictor`
hot-reloads from disk.  Because pipeline save/load round-trips are
bit-exact, the served weights equal the training copy exactly.

Two reactions are supported:

* :meth:`adapt` — fold buffered labeled feedback into the training loader
  through the :class:`repro.data.StreamWindowBuffer` ring (touched rows
  invalidate only the :class:`~repro.core.TeacherCache` windows containing
  them — in DTDBD mode untouched windows keep serving their original
  arrays), then run ``epochs_per_adaptation`` incremental epochs with the
  existing :class:`~repro.core.Trainer` / :class:`~repro.core.DTDBDTrainer`
  machinery, snapshot if configured, and re-export.
* :meth:`onboard_domain` — grow the student (and, in DTDBD mode, both frozen
  teachers) by one domain with copy-initialised weights
  (:func:`repro.models.expand_domains`), extend the domain vocabulary, and
  re-export — existing domains' outputs stay bit-identical to the
  pre-expansion model.  The trainer is rebuilt afterwards (Adam moments are
  shaped for the old parameters) and reuses the restamped teacher caches:
  a frozen teacher's cached rows survive expansion unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dtdbd import DTDBDConfig, DTDBDTrainer
from repro.core.trainer import Trainer, TrainerConfig
from repro.data.dataset import NewsItem
from repro.data.loader import DataLoader
from repro.data.streambuffer import StreamWindowBuffer
from repro.encoders.channels import required_channels
from repro.models.base import FakeNewsDetector
from repro.models.expand import expand_domains
from repro.serve.pipeline import Pipeline, write_artifact
from repro.tensor import default_dtype


@dataclass
class AdapterConfig:
    """Knobs of the :class:`OnlineAdapter`."""

    #: directory the re-exported pipeline artifact lands in (hot-reload source)
    export_path: str
    #: incremental epochs per adaptation
    epochs_per_adaptation: int = 1
    #: labeled feedback items required before :meth:`adapt` actually trains
    min_feedback: int = 8
    #: existing domain whose weights seed an onboarded domain
    donor_domain: int = 0
    #: optional trainer snapshot written after each adaptation (crash-resume)
    snapshot_path: str | None = None

    def __post_init__(self):
        if not self.export_path:
            raise ValueError("AdapterConfig.export_path is required")
        if self.epochs_per_adaptation < 1:
            raise ValueError("epochs_per_adaptation must be >= 1")
        if self.min_feedback < 1:
            raise ValueError("min_feedback must be >= 1")


@dataclass
class AdaptationRecord:
    """What one :meth:`OnlineAdapter.adapt` call did (deterministic fields)."""

    ordinal: int
    reason: str
    items: int
    touched_rows: int
    epochs: int
    losses: list[float]
    fingerprint: str

    def as_dict(self) -> dict:
        return {
            "ordinal": self.ordinal,
            "reason": self.reason,
            "items": self.items,
            "touched_rows": self.touched_rows,
            "epochs": self.epochs,
            "losses": list(self.losses),
            "fingerprint": self.fingerprint,
        }


class OnlineAdapter:
    """Reacts to drift / feedback by fine-tuning and re-exporting the student.

    The adapter takes ownership of ``loader`` (the ring the adaptations
    train on): at construction it keeps only the feature channels the
    student or either teacher reads (:func:`repro.encoders.required_channels`)
    and drops the rest from ``loader.channels`` and ``loader.features``, so
    each ring write re-encodes exactly the kept channels.  A later read of a
    dropped channel fails with :meth:`repro.data.Batch.feature`'s
    ``KeyError``.
    """

    def __init__(self, pipeline: Pipeline, loader: DataLoader,
                 config: AdapterConfig,
                 unbiased_teacher: FakeNewsDetector | None = None,
                 clean_teacher: FakeNewsDetector | None = None,
                 trainer_config: TrainerConfig | None = None,
                 dtdbd_config: DTDBDConfig | None = None):
        if loader.dataset.domain_names != pipeline.domain_names[:len(
                loader.dataset.domain_names)]:
            raise ValueError(
                "loader and pipeline disagree on domain names: "
                f"{loader.dataset.domain_names} vs {pipeline.domain_names}")
        loader.channels = required_channels(loader.channels, pipeline.model,
                                            unbiased_teacher, clean_teacher)
        loader.features = {channel.name: loader.features[channel.name]
                           for channel in loader.channels}
        self.pipeline = pipeline
        self.loader = loader
        self.config = config
        self.buffer = StreamWindowBuffer(loader)
        self.unbiased_teacher = unbiased_teacher
        self.clean_teacher = clean_teacher
        self._trainer_config = trainer_config
        self._dtdbd_config = dtdbd_config
        self._feedback: list[NewsItem] = []
        self.adaptations: list[AdaptationRecord] = []
        self.onboardings: list[dict] = []
        self.trainer = self._build_trainer()
        # The first export makes the artifact exist before any traffic, so a
        # predictor can be pointed at export_path from ordinal zero.
        write_artifact(self.pipeline, self.config.export_path)

    @property
    def distilled(self) -> bool:
        """Whether adaptations run the dual-teacher (DTDBD) loss."""
        return (self.unbiased_teacher is not None
                or self.clean_teacher is not None)

    def _build_trainer(self):
        if self.distilled:
            return DTDBDTrainer(self.pipeline.model, self.unbiased_teacher,
                                self.clean_teacher, self._dtdbd_config)
        return Trainer(self.pipeline.model, self._trainer_config)

    # ------------------------------------------------------------------ #
    # Labeled feedback                                                     #
    # ------------------------------------------------------------------ #
    def ingest(self, item: NewsItem) -> None:
        """Buffer one labeled item for the next adaptation."""
        self._feedback.append(item)

    @property
    def feedback_count(self) -> int:
        return len(self._feedback)

    def feedback_for_domain(self, name: str) -> int:
        """Buffered labeled items belonging to domain ``name`` (by name)."""
        return sum(1 for item in self._feedback if item.domain_name == name)

    def ready(self) -> bool:
        """Whether enough feedback is buffered for :meth:`adapt` to train."""
        return len(self._feedback) >= self.config.min_feedback

    # ------------------------------------------------------------------ #
    # Incremental fine-tuning                                              #
    # ------------------------------------------------------------------ #
    def adapt(self, reason: str, ordinal: int) -> AdaptationRecord | None:
        """Fold buffered feedback in, fine-tune, snapshot, re-export.

        Returns the adaptation record, or ``None`` when no feedback is
        buffered (there is nothing to learn from; drift without labels waits
        for labels).  The re-export is atomic and checksummed; the returned
        record carries the new artifact fingerprint for hot-reload
        verification.
        """
        if not self._feedback:
            return None
        items, self._feedback = self._feedback, []
        if len(items) > self.buffer.capacity:
            # Ring semantics: a single oversized fold keeps the newest rows —
            # the older ones would be overwritten inside the ring anyway.
            items = items[-self.buffer.capacity:]
        touched = self.buffer.write(items)
        if self.distilled:
            # Fresh rows invalidate exactly the cache windows containing
            # them; every other window keeps serving its original arrays.
            self.trainer.invalidate_teacher_caches(self.loader, touched)
        losses: list[float] = []
        with default_dtype(self.pipeline.dtype):
            for _ in range(self.config.epochs_per_adaptation):
                losses.append(float(self.trainer.train_epoch(self.loader)))
        self.pipeline.model.eval()
        if self.config.snapshot_path is not None:
            self.trainer.snapshot(self.config.snapshot_path)
        exported = write_artifact(self.pipeline, self.config.export_path)
        record = AdaptationRecord(
            ordinal=ordinal, reason=reason, items=len(items),
            touched_rows=int(touched.size),
            epochs=self.config.epochs_per_adaptation, losses=losses,
            fingerprint=exported.fingerprint)
        self.adaptations.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Continual domain onboarding                                          #
    # ------------------------------------------------------------------ #
    def onboard_domain(self, name: str, ordinal: int) -> dict:
        """Register unseen domain ``name``: expand models, re-export.

        Grows the student's domain axis (and both teachers' in DTDBD mode —
        expansion only rewrites parameter data, so frozen teachers stay
        frozen) with weights copy-initialised from ``donor_domain``, appends
        ``name`` to the loader's and pipeline's domain vocabulary, rebuilds
        the trainer (optimizer moments are shaped for the old parameters)
        after restamping the teacher caches (a frozen teacher's cached
        outputs for existing rows are unchanged by expansion, so the new
        trainer reuses them), and atomically re-exports.  Existing domains'
        predictions are bit-identical before and after — pinned by
        ``tests/streaming/``.

        The new domain starts as a behavioural clone of the donor; call
        :meth:`ingest` with its first labeled items and then :meth:`adapt`
        to warm it up.
        """
        if name in self.loader.dataset.domain_names:
            raise ValueError(f"domain '{name}' already exists")
        new_count = self.pipeline.model_config.num_domains + 1
        donor = self.config.donor_domain
        grown = expand_domains(self.pipeline.model, new_count, donor=donor)
        for teacher in (self.unbiased_teacher, self.clean_teacher):
            if teacher is not None and teacher.config.num_domains < new_count:
                expand_domains(teacher, new_count, donor=donor)
        self.loader.dataset.domain_names.append(name)
        if name not in self.pipeline.domain_names:
            self.pipeline.domain_names.append(name)
        self.pipeline.model_config = self.pipeline.model.config

        if self.distilled:
            # Teacher outputs for every existing row are unchanged by the
            # expansion: restamped (under the dtype they were computed in),
            # the rebuilt trainer reuses them.
            with default_dtype(self.pipeline.dtype):
                for cache in self.trainer.teacher_caches(self.loader):
                    if cache is not None:
                        cache.restamp()
        self.trainer = self._build_trainer()

        self.pipeline.model.eval()
        exported = write_artifact(self.pipeline, self.config.export_path)
        record = {
            "ordinal": ordinal,
            "domain": name,
            "domain_index": new_count - 1,
            "num_domains": new_count,
            "donor": donor,
            "grown": list(grown),
            "fingerprint": exported.fingerprint,
        }
        self.onboardings.append(record)
        return record


__all__ = ["AdapterConfig", "AdaptationRecord", "OnlineAdapter"]
