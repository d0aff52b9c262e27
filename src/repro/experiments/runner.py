"""Experiment runner: data preparation and the per-table reproduction pipelines.

Every public function here corresponds to a table or figure of the paper and is
called both by ``benchmarks/`` (pytest-benchmark targets) and by the example
scripts, so the numbers printed by either always come from the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.bias_analysis import BiasAudit, TABLE3_MODELS, audit_models
from repro.analysis.case_study import CaseStudyRow, run_case_study
from repro.analysis.tsne import feature_domain_mixing
from repro.core.dat import DATConfig, train_dat_student, train_unbiased_teacher
from repro.core.dtdbd import DTDBDConfig, DTDBDTrainer
from repro.core.trainer import Trainer, collect_features, evaluate_model
from repro.data.loader import DataLoader
from repro.data.splits import DatasetSplits, stratified_split
from repro.data.synthetic import (
    ENGLISH_DOMAIN_SPECS,
    WEIBO21_DOMAIN_SPECS,
    SyntheticCorpusConfig,
    SyntheticNewsGenerator,
    make_english_like,
    make_weibo21_like,
)
from repro.data.vocab import Vocabulary
from repro.encoders import (
    EncoderBackend,
    FrozenPretrainedEncoder,
    stock_channels,
    wrap_encoder,
)
from repro.experiments.config import ExperimentConfig
from repro.metrics import EvaluationReport
from repro.models import build_model
from repro.models.base import FakeNewsDetector, ModelConfig
from repro.serve import export_pipeline as serve_export_pipeline
from repro.tensor import set_default_dtype
from repro.utils import set_global_seed


# --------------------------------------------------------------------------- #
# Data preparation                                                             #
# --------------------------------------------------------------------------- #
@dataclass
class DataBundle:
    """Dataset, splits, vocabulary, frozen encoder and the three loaders."""

    config: ExperimentConfig
    dataset: object
    splits: DatasetSplits
    vocab: Vocabulary
    #: the backend serving the ``plm`` channel, selected by
    #: ``ExperimentConfig.encoder_backend`` (``local`` is the frozen encoder)
    encoder_backend: EncoderBackend
    train_loader: DataLoader
    val_loader: DataLoader
    test_loader: DataLoader
    #: the resolved FeatureChannel objects the loaders precomputed with —
    #: what :func:`export_pipeline` persists, so custom channels round-trip
    channels: list = field(default_factory=list)

    @property
    def num_domains(self) -> int:
        return self.dataset.num_domains

    def reseed(self) -> None:
        """Reset every mutable random stream this bundle owns.

        Restores the three loaders' shuffle generators to their constructor
        state and re-installs the experiment seed as the process-wide fallback
        seed.  After a ``reseed()`` a pipeline run over this bundle produces
        exactly the numbers it would produce against a freshly built bundle —
        which is how the benchmark suite keeps every table reproducible both
        standalone and in a full collection run.
        """
        for loader in (self.train_loader, self.val_loader, self.test_loader):
            loader.reseed()
        set_global_seed(self.config.seed)

    def model_config(self, seed_offset: int = 0, **overrides) -> ModelConfig:
        base = self.config.model.with_overrides(
            plm_dim=self.config.plm_dim,
            num_domains=self.num_domains,
            seed=self.config.seed + seed_offset,
        )
        return base.with_overrides(**overrides) if overrides else base


def prepare_data(config: ExperimentConfig) -> DataBundle:
    """Generate the corpus, split it, build the vocabulary and the loaders."""
    # Install the compute-dtype policy before anything dtype-sensitive is
    # built (feature channels, parameters, zero states); models constructed
    # later against this bundle inherit the same policy.  The experiment seed
    # also becomes the process-wide fallback seed, so components built without
    # an explicit rng (e.g. a bare Dropout) stay reproducible run-to-run.
    # Both installs are process-global: interleaving prepare_data calls for
    # several configs leaves the *last* config's policy/seed active, so a
    # caller juggling bundles should invoke bundle.reseed() before training
    # against an earlier one (the benchmark fixtures do exactly that).
    set_default_dtype(config.dtype)
    set_global_seed(config.seed)
    if config.dataset == "chinese":
        dataset = make_weibo21_like(scale=config.scale, seed=config.seed)
    elif config.dataset == "english":
        dataset = make_english_like(scale=config.scale, seed=config.seed)
    else:
        raise ValueError(f"unknown dataset '{config.dataset}' (use 'chinese' or 'english')")
    splits = stratified_split(dataset, train_fraction=config.train_fraction,
                              val_fraction=config.val_fraction, seed=config.split_seed)
    vocab = splits.train.build_vocabulary()
    encoder = FrozenPretrainedEncoder(len(vocab), output_dim=config.plm_dim,
                                      seed=config.seed + 1)
    # The backend is the single ``plm`` service every consumer shares: the
    # three loaders, the channel objects and (via export_pipeline) the
    # serving artifact.  "local" is the encoder itself; "cached" is
    # bit-identical to it (pinned by tests/encoders/test_backends.py), just
    # with different operational behaviour.
    backend = wrap_encoder(config.encoder_backend, encoder)
    channels = stock_channels(backend)

    def loader(split, shuffle):
        return DataLoader(split, vocab, max_length=config.max_length,
                          batch_size=config.batch_size, shuffle=shuffle,
                          seed=config.split_seed, channels=channels)

    return DataBundle(
        config=config,
        dataset=dataset,
        splits=splits,
        vocab=vocab,
        encoder_backend=backend,
        train_loader=loader(splits.train, True),
        val_loader=loader(splits.val, False),
        test_loader=loader(splits.test, False),
        channels=channels,
    )


# --------------------------------------------------------------------------- #
# Serving export                                                               #
# --------------------------------------------------------------------------- #
def export_pipeline(model: FakeNewsDetector, bundle: DataBundle, path,
                    model_name: str | None = None, metadata: dict | None = None) -> str:
    """Export a bundle-trained model as a ``repro.serve`` pipeline artifact.

    Records the experiment provenance (dataset, scale, seed, dtype) in the
    artifact's metadata; returns the artifact path.
    """
    provenance = {
        "dataset": bundle.config.dataset,
        "scale": bundle.config.scale,
        "seed": bundle.config.seed,
        "trained_dtype": bundle.config.dtype,
    }
    provenance.update(metadata or {})
    return serve_export_pipeline(
        model, path,
        vocab=bundle.vocab,
        encoder=bundle.encoder_backend,
        tokenizer=bundle.train_loader.tokenizer,
        max_length=bundle.config.max_length,
        domain_names=bundle.dataset.domain_names,
        model_name=model_name,
        # Record the channel objects the model actually trained on, so custom
        # (registered) channels round-trip through the artifact.
        channels=list(bundle.channels) or None,
        metadata=provenance,
    )


# --------------------------------------------------------------------------- #
# Single-model pipelines                                                       #
# --------------------------------------------------------------------------- #
def train_baseline(name: str, bundle: DataBundle, seed_offset: int = 0,
                   epochs: int | None = None) -> tuple[FakeNewsDetector, EvaluationReport]:
    """Train one baseline with the standard supervised loop and evaluate on test."""
    config = bundle.config
    model = build_model(name, bundle.model_config(seed_offset=seed_offset))
    trainer_config = config.trainer_config()
    if epochs is not None:
        trainer_config = config.trainer_config(epochs=epochs)
    Trainer(model, trainer_config).fit(bundle.train_loader, bundle.val_loader)
    report = evaluate_model(model, bundle.test_loader, model_name=name)
    return model, report


def train_unbiased(bundle: DataBundle, student_name: str | None = None,
                   dat_config: DATConfig | None = None,
                   seed_offset: int = 100) -> tuple[FakeNewsDetector, EvaluationReport]:
    """Train the DAT-IE unbiased teacher on the student architecture."""
    student_name = student_name or bundle.config.student_name
    backbone = build_model(student_name, bundle.model_config(seed_offset=seed_offset))
    backbone, _ = train_unbiased_teacher(backbone, bundle.train_loader, bundle.val_loader,
                                         config=dat_config or bundle.config.dat,
                                         seed=bundle.config.seed + seed_offset)
    report = evaluate_model(backbone, bundle.test_loader,
                            model_name=f"{student_name}+dat-ie")
    return backbone, report


def train_dtdbd_student(bundle: DataBundle,
                        unbiased_teacher: FakeNewsDetector | None,
                        clean_teacher: FakeNewsDetector | None,
                        student_name: str | None = None,
                        dtdbd_config: DTDBDConfig | None = None,
                        seed_offset: int = 200,
                        ) -> tuple[FakeNewsDetector, EvaluationReport, DTDBDTrainer]:
    """Distil a fresh student from the two (frozen) teachers."""
    student_name = student_name or bundle.config.student_name
    student = build_model(student_name, bundle.model_config(seed_offset=seed_offset))
    trainer = DTDBDTrainer(student, unbiased_teacher, clean_teacher,
                           config=dtdbd_config or bundle.config.dtdbd)
    trainer.fit(bundle.train_loader, bundle.val_loader)
    report = evaluate_model(student, bundle.test_loader, model_name=f"dtdbd-{student_name}")
    return student, report, trainer


# --------------------------------------------------------------------------- #
# Table reproductions                                                          #
# --------------------------------------------------------------------------- #
#: baselines appearing in Table VI (Chinese) in paper order
TABLE6_BASELINES: tuple[str, ...] = (
    "bigru", "textcnn", "bert", "roberta", "stylelstm", "dualemo",
    "eann", "eann_nodat", "mmoe", "mose", "eddfn", "eddfn_nodat",
    "mdfend", "m3fend",
)
#: baselines appearing in Table VII (English) in paper order
TABLE7_BASELINES: tuple[str, ...] = (
    "bigru", "textcnn", "roberta", "stylelstm", "dualemo",
    "eann", "eann_nodat", "mmoe", "mose", "eddfn", "eddfn_nodat",
    "mdfend", "m3fend",
)


def run_comparison(config: ExperimentConfig, baselines: tuple[str, ...] | None = None,
                   include_dtdbd: bool = True,
                   bundle: DataBundle | None = None) -> dict[str, EvaluationReport]:
    """Reproduce Table VI / Table VII: every baseline plus Our(MD) and Our(M3).

    Returns a mapping of method name to its :class:`EvaluationReport` on the
    test split.
    """
    bundle = bundle or prepare_data(config)
    if baselines is None:
        baselines = TABLE6_BASELINES if config.dataset == "chinese" else TABLE7_BASELINES
    reports: dict[str, EvaluationReport] = {}
    trained: dict[str, FakeNewsDetector] = {}
    for offset, name in enumerate(baselines):
        model, report = train_baseline(name, bundle, seed_offset=offset)
        trained[name] = model
        reports[name] = report
    if include_dtdbd:
        unbiased, _ = train_unbiased(bundle)
        for teacher_name, row_name in (("mdfend", "our_md"), ("m3fend", "our_m3")):
            if teacher_name in trained:
                clean = trained[teacher_name]
            else:
                clean, _ = train_baseline(teacher_name, bundle, seed_offset=300)
            _, report, _ = train_dtdbd_student(bundle, unbiased, clean,
                                               seed_offset=400 + len(reports))
            reports[row_name] = report
    return reports


def run_table3(config: ExperimentConfig, models: tuple[str, ...] = TABLE3_MODELS,
               bundle: DataBundle | None = None) -> BiasAudit:
    """Reproduce Table III: FNR/FPR of four advanced baselines on skewed domains."""
    bundle = bundle or prepare_data(config)
    trained: dict[str, FakeNewsDetector] = {}
    for offset, name in enumerate(models):
        model, _ = train_baseline(name, bundle, seed_offset=offset)
        trained[name] = model
    return audit_models(trained, bundle.test_loader)


def run_table8_ablation(config: ExperimentConfig, student_names: tuple[str, ...] = ("textcnn_s", "bigru_s"),
                        bundle: DataBundle | None = None) -> dict[str, dict[str, EvaluationReport]]:
    """Reproduce Table VIII: component ablation for each student architecture.

    Rows per student: ``student``, ``student+dat_ie``, ``teacher_m3``,
    ``student+dnd``, ``student+add``, ``wo_daa``, ``dtdbd``.
    """
    bundle = bundle or prepare_data(config)
    clean_teacher, teacher_report = train_baseline("m3fend", bundle, seed_offset=77)
    results: dict[str, dict[str, EvaluationReport]] = {}
    for student_name in student_names:
        rows: dict[str, EvaluationReport] = {}
        _, rows["student"] = train_baseline(student_name, bundle, seed_offset=10)
        unbiased, rows["student+dat_ie"] = train_unbiased(bundle, student_name=student_name)
        rows["teacher_m3"] = teacher_report
        _, rows["student+dnd"], _ = train_dtdbd_student(
            bundle, None, clean_teacher, student_name=student_name,
            dtdbd_config=_override(bundle.config.dtdbd, use_add=False), seed_offset=210)
        _, rows["student+add"], _ = train_dtdbd_student(
            bundle, unbiased, None, student_name=student_name,
            dtdbd_config=_override(bundle.config.dtdbd, use_dkd=False), seed_offset=220)
        _, rows["wo_daa"], _ = train_dtdbd_student(
            bundle, unbiased, clean_teacher, student_name=student_name,
            dtdbd_config=_override(bundle.config.dtdbd, use_dynamic_adjustment=False),
            seed_offset=230)
        _, rows["dtdbd"], _ = train_dtdbd_student(
            bundle, unbiased, clean_teacher, student_name=student_name, seed_offset=240)
        results[student_name] = rows
    return results


def run_table9_dat_comparison(config: ExperimentConfig,
                              student_names: tuple[str, ...] = ("textcnn_s", "bigru_s"),
                              bundle: DataBundle | None = None,
                              ) -> dict[str, dict[str, EvaluationReport]]:
    """Reproduce Table IX: plain student vs +DAT vs +DAT-IE for each student."""
    bundle = bundle or prepare_data(config)
    results: dict[str, dict[str, EvaluationReport]] = {}
    for student_name in student_names:
        rows: dict[str, EvaluationReport] = {}
        _, rows["student"] = train_baseline(student_name, bundle, seed_offset=10)
        for use_ie, row in ((False, "student+dat"), (True, "student+dat_ie")):
            backbone = build_model(student_name, bundle.model_config(seed_offset=20 + int(use_ie)))
            backbone, _ = train_dat_student(
                backbone, bundle.train_loader, bundle.val_loader,
                use_information_entropy=use_ie, epochs=bundle.config.dat.epochs,
                learning_rate=bundle.config.dat.learning_rate, seed=bundle.config.seed)
            rows[row] = evaluate_model(backbone, bundle.test_loader,
                                       model_name=f"{student_name}{'+dat-ie' if use_ie else '+dat'}")
        results[student_name] = rows
    return results


def run_figure2_mixing(config: ExperimentConfig, bundle: DataBundle | None = None,
                       max_points: int = 300) -> dict[str, dict]:
    """Reproduce Figure 2 quantitatively: domain-mixing of intermediate features.

    Compares M3FEND, the plain student (TextCNN-U), the DAT-IE student and the
    DTDBD student.  Higher ``mixing_score`` means domains are more interleaved
    in feature space (the paper's claim is that DTDBD mixes more than the plain
    student while M3FEND keeps domain-specific clusters).
    """
    bundle = bundle or prepare_data(config)
    clean_teacher, _ = train_baseline("m3fend", bundle, seed_offset=77)
    student, _ = train_baseline(bundle.config.student_name, bundle, seed_offset=10)
    unbiased, _ = train_unbiased(bundle)
    dtdbd_student, _, _ = train_dtdbd_student(bundle, unbiased, clean_teacher)
    named = {
        "m3fend": clean_teacher,
        "textcnn_u": student,
        "textcnn_u+dat_ie": unbiased,
        "textcnn_u+dtdbd": dtdbd_student,
    }
    results: dict[str, dict] = {}
    for name, model in named.items():
        features, _, domains = collect_features(model, bundle.test_loader, max_items=max_points)
        analysis = feature_domain_mixing(features, domains, max_points=max_points,
                                         seed=config.seed)
        results[name] = {"mixing_score": analysis["mixing_score"],
                         "num_points": int(analysis["embedding"].shape[0])}
    return results


def run_figure3_case_study(config: ExperimentConfig,
                           bundle: DataBundle | None = None) -> list[CaseStudyRow]:
    """Reproduce Figure 3: probe predictions of M3FEND, MDFEND and DTDBD."""
    bundle = bundle or prepare_data(config)
    m3fend, _ = train_baseline("m3fend", bundle, seed_offset=77)
    mdfend, _ = train_baseline("mdfend", bundle, seed_offset=78)
    unbiased, _ = train_unbiased(bundle)
    dtdbd_student, _, _ = train_dtdbd_student(bundle, unbiased, m3fend)
    specs = WEIBO21_DOMAIN_SPECS if config.dataset == "chinese" else ENGLISH_DOMAIN_SPECS
    generator = SyntheticNewsGenerator(SyntheticCorpusConfig(
        name="case-study", domain_specs=specs, scale=max(config.scale, 0.1),
        seed=config.seed + 7))
    probes = generator.generate_case_study()
    models = {"m3fend": m3fend, "mdfend": mdfend, "dtdbd": dtdbd_student}
    return run_case_study(probes, models, bundle.vocab, bundle.dataset.domain_names,
                          max_length=config.max_length,
                          channels=bundle.channels)


def _override(dtdbd_config: DTDBDConfig, **overrides) -> DTDBDConfig:
    from dataclasses import replace

    return replace(dtdbd_config, **overrides)
