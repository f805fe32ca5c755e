"""Dual-level adaptive error-bound strategy (table-wise + iteration-wise)."""

from repro.adaptive.classify import ErrorBoundLevels, classify_by_rank
from repro.adaptive.autotune import (
    AutoTuneResult,
    TrialResult,
    autotune_global_error_bound,
)
from repro.adaptive.controller import AdaptiveController
from repro.adaptive.decay import (
    AbruptDrop,
    ConstantSchedule,
    DecaySchedule,
    LinearDecay,
    LogarithmicDecay,
    StepwiseDecay,
    make_schedule,
)
from repro.adaptive.homo_index import (
    HomoIndexResult,
    count_patterns,
    homogenization_index,
)
from repro.adaptive.offline import CompressionPlan, OfflineAnalyzer, TablePlan
from repro.adaptive.selection import (
    PAPER_A100_PROFILE,
    CandidateResult,
    CodecThroughput,
    DeviceThroughputProfile,
    SelectionResult,
    select_compressor,
)

__all__ = [
    "homogenization_index",
    "count_patterns",
    "HomoIndexResult",
    "ErrorBoundLevels",
    "classify_by_rank",
    "DecaySchedule",
    "ConstantSchedule",
    "StepwiseDecay",
    "LinearDecay",
    "LogarithmicDecay",
    "AbruptDrop",
    "make_schedule",
    "CodecThroughput",
    "DeviceThroughputProfile",
    "PAPER_A100_PROFILE",
    "CandidateResult",
    "SelectionResult",
    "select_compressor",
    "OfflineAnalyzer",
    "CompressionPlan",
    "TablePlan",
    "AdaptiveController",
    "autotune_global_error_bound",
    "AutoTuneResult",
    "TrialResult",
]
