"""annobias: simulate, repair, and evaluate proposal-guided annotation.

Annotators shown a proposed label tend to accept it more often than the
ground truth warrants.  This package simulates that behavior over soft
ground-truth labels, removes the resulting bias from annotation tallies,
calibrates the acceptance offset from logged campaigns, and scores label
quality — all behind a deterministic, seed-addressed random-stream
discipline so every experiment is reproducible.
"""

from .calibration import (
    AcceptanceRecord,
    CalibrationError,
    delta_from_acceptance,
    estimate_delta_banded,
    estimate_delta_two_proposals,
)
from .core import (
    AnnotationSet,
    DatasetMeta,
    DegenerateDistributionError,
    LabelDistribution,
    TransitionMatrix,
    argmax_class,
    normalize,
    sample_class,
    soft_gt_from_annotations,
)
from .correction import (
    CorrectionParams,
    UncoveredClassError,
    bias_correct,
    bias_correct_distribution,
    blend_with_class_distribution,
    estimate_transition_matrix,
    repair_labels,
)
from .metrics import (
    BinMatrix,
    BudgetParams,
    StrategyComparison,
    aggregate_scores,
    bin_index,
    budget,
    build_bin_matrix,
    compare_strategies,
    kl_divergence,
    sod,
)
from .rng import substream
from .simulation import (
    SimulationParams,
    Strategy,
    acceptance_probability,
    simulate_annotation,
    simulate_annotation_set,
    simulate_strategy_set,
    simulate_with_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AcceptanceRecord",
    "AnnotationSet",
    "BinMatrix",
    "BudgetParams",
    "CalibrationError",
    "CorrectionParams",
    "DatasetMeta",
    "DegenerateDistributionError",
    "LabelDistribution",
    "SimulationParams",
    "Strategy",
    "StrategyComparison",
    "TransitionMatrix",
    "UncoveredClassError",
    "acceptance_probability",
    "aggregate_scores",
    "argmax_class",
    "bias_correct",
    "bias_correct_distribution",
    "bin_index",
    "blend_with_class_distribution",
    "budget",
    "build_bin_matrix",
    "compare_strategies",
    "delta_from_acceptance",
    "estimate_delta_banded",
    "estimate_delta_two_proposals",
    "estimate_transition_matrix",
    "kl_divergence",
    "normalize",
    "repair_labels",
    "sample_class",
    "simulate_annotation",
    "simulate_annotation_set",
    "simulate_strategy_set",
    "simulate_with_strategy",
    "sod",
    "soft_gt_from_annotations",
    "substream",
]
