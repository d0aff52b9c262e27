"""Experiment configuration, runners and table formatting."""

from repro.experiments.config import (
    ExperimentConfig,
    default_chinese_config,
    default_english_config,
    experiment_config,
)
from repro.experiments.runner import (
    TABLE6_BASELINES,
    TABLE7_BASELINES,
    DataBundle,
    export_pipeline,
    prepare_data,
    run_comparison,
    run_figure2_mixing,
    run_figure3_case_study,
    run_table3,
    run_table8_ablation,
    run_table9_dat_comparison,
    train_baseline,
    train_dtdbd_student,
    train_unbiased,
)
from repro.experiments.io import (
    load_results,
    report_to_dict,
    results_to_json,
    save_results,
)
from repro.experiments.journal import CellRecord, JournalError, RunJournal
from repro.experiments.orchestrator import (
    CellOutcome,
    CellSpec,
    OrchestratorConfig,
    SweepFailed,
    SweepResult,
    register_cell_kind,
    run_cell,
    run_sweep,
    sweep_fingerprint,
    table_cell_specs,
)
from repro.experiments.stream_schedule import (
    StreamScheduleConfig,
    generate_stream_schedule,
)
from repro.experiments.tables import (
    FUNCTIONAL_COMPARISON,
    format_bias_audit,
    format_case_study,
    format_compact_table,
    format_comparison_table,
    format_dataset_statistics,
    format_functional_comparison,
    format_mixing_scores,
)

__all__ = [
    "ExperimentConfig", "default_chinese_config", "default_english_config",
    "experiment_config",
    "DataBundle", "prepare_data", "export_pipeline",
    "train_baseline", "train_unbiased", "train_dtdbd_student",
    "run_comparison", "run_table3", "run_table8_ablation", "run_table9_dat_comparison",
    "run_figure2_mixing", "run_figure3_case_study",
    "TABLE6_BASELINES", "TABLE7_BASELINES",
    "format_comparison_table", "format_compact_table", "format_bias_audit",
    "format_dataset_statistics", "format_case_study", "format_mixing_scores",
    "format_functional_comparison", "FUNCTIONAL_COMPARISON",
    "save_results", "load_results", "results_to_json", "report_to_dict",
    "RunJournal", "CellRecord", "JournalError",
    "CellSpec", "CellOutcome", "OrchestratorConfig", "SweepResult", "SweepFailed",
    "register_cell_kind", "run_cell", "run_sweep", "sweep_fingerprint",
    "table_cell_specs",
    "StreamScheduleConfig", "generate_stream_schedule",
]
