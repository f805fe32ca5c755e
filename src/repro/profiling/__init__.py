"""Profiling, breakdown reporting, and codec throughput tracking."""

from repro.profiling.breakdown import (
    CATEGORY_LABELS,
    SpeedupSummary,
    breakdown_report,
    breakdown_rows,
    chunk_pipeline_report,
    compare_runs,
    overlap_efficiency,
    overlap_report,
)

__all__ = [
    "CATEGORY_LABELS",
    "breakdown_rows",
    "breakdown_report",
    "SpeedupSummary",
    "compare_runs",
    "overlap_report",
    "overlap_efficiency",
    "chunk_pipeline_report",
]
