"""Experiment harness: file formats, configuration, orchestration, CLI."""

from .config import ConfigError, ExperimentConfig
from .formats import (
    Dataset,
    FormatError,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    acceptance_records_from_log,
    bundled_transition_matrix,
    bundled_transition_names,
    load_acceptance_log,
    load_dataset,
    load_transition_matrix,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Dataset",
    "FormatError",
    "ImageRecord",
    "LogEntry",
    "TransitionMatrixFile",
    "acceptance_records_from_log",
    "bundled_transition_matrix",
    "bundled_transition_names",
    "load_acceptance_log",
    "load_dataset",
    "load_transition_matrix",
    "save_acceptance_log",
    "save_dataset",
    "save_transition_matrix",
]
