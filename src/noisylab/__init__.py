"""Desk-scale laboratory for training classifiers under label noise.

Corrupt labels with a known transition matrix, train a small MLP, and keep
only the per-batch samples whose selection score survives the cut. The
combined score subtracts confidence aligned with estimated penalty labels
from confidence on the observed label.
"""

from .criteria import (
    AffineEquivalence,
    ConfidenceAccumulator,
    PenaltyLabelSet,
    criteria_all,
    criteria_ol,
    criteria_pl,
    estimate_penalty_labels,
    ideal_penalty_affine_check,
)
from .data import (
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxTruncatedError,
    LabeledDataset,
    epoch_batches,
    load_idx,
    make_blobs,
)
from .losses import SlConfig, ce_loss, rce_loss, sl_loss
from .metrics import (
    RunRecord,
    aggregate_trials,
    selection_precision,
    summarize_runs,
    test_error,
    write_metrics_csv,
    write_summary_json,
)
from .network import LrSchedule, Mlp, MomentumSgd, NumericalFault
from .noise import NoiseKind, NoiseSpec, build_transition, corrupt_labels
from .trainer import (
    CriteriaConfig,
    LossKind,
    PenaltyUpdate,
    RunResult,
    SelectionOutcome,
    TrainConfig,
    Variant,
    run_experiment,
    select_top_r,
    train_epoch,
)

__all__ = [
    "AffineEquivalence",
    "ConfidenceAccumulator",
    "CriteriaConfig",
    "IdxCountMismatchError",
    "IdxFormatError",
    "IdxMagicError",
    "IdxTruncatedError",
    "LabeledDataset",
    "LossKind",
    "LrSchedule",
    "Mlp",
    "MomentumSgd",
    "NoiseKind",
    "NoiseSpec",
    "NumericalFault",
    "PenaltyLabelSet",
    "PenaltyUpdate",
    "RunRecord",
    "RunResult",
    "SelectionOutcome",
    "SlConfig",
    "TrainConfig",
    "Variant",
    "aggregate_trials",
    "build_transition",
    "ce_loss",
    "corrupt_labels",
    "criteria_all",
    "criteria_ol",
    "criteria_pl",
    "epoch_batches",
    "estimate_penalty_labels",
    "ideal_penalty_affine_check",
    "load_idx",
    "make_blobs",
    "rce_loss",
    "run_experiment",
    "select_top_r",
    "selection_precision",
    "sl_loss",
    "summarize_runs",
    "test_error",
    "train_epoch",
    "write_metrics_csv",
    "write_summary_json",
]
