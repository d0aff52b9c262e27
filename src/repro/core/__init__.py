"""DTDBD core: distillation losses, DAT-IE training, momentum adjustment, trainers."""

from repro.core.callbacks import EarlyStopping, EpochRecord, TrainingHistory
from repro.core.dat import (
    DATConfig,
    DomainAdversarialModel,
    train_dat_student,
    train_unbiased_teacher,
)
from repro.core.distill import (
    TeacherCache,
    adversarial_debiasing_distillation_loss,
    correlation_matrix,
    domain_knowledge_distillation_loss,
    teacher_forward,
)
from repro.core.dtdbd import DTDBDConfig, DTDBDTrainer
from repro.core.interrupt import TrainingInterrupted, trap_termination
from repro.core.momentum import (
    ConstantWeightScheduler,
    MomentumWeightScheduler,
    WeightSnapshot,
)
from repro.core.snapshot import SnapshotError, load_snapshot, save_snapshot
from repro.core.trainer import Trainer, TrainerConfig, collect_features, evaluate_model

__all__ = [
    "TrainingHistory", "EpochRecord", "EarlyStopping",
    "SnapshotError", "save_snapshot", "load_snapshot",
    "Trainer", "TrainerConfig", "evaluate_model", "collect_features",
    "TrainingInterrupted", "trap_termination",
    "DATConfig", "DomainAdversarialModel", "train_unbiased_teacher", "train_dat_student",
    "correlation_matrix", "adversarial_debiasing_distillation_loss",
    "domain_knowledge_distillation_loss", "teacher_forward", "TeacherCache",
    "MomentumWeightScheduler", "ConstantWeightScheduler", "WeightSnapshot",
    "DTDBDConfig", "DTDBDTrainer",
]
