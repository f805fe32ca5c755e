"""Profiling, breakdown reporting, and codec throughput tracking."""

from repro.profiling.breakdown import (
    CATEGORY_LABELS,
    SpeedupSummary,
    breakdown_report,
    breakdown_rows,
    compare_runs,
    overlap_efficiency,
)

__all__ = [
    "CATEGORY_LABELS",
    "breakdown_rows",
    "breakdown_report",
    "SpeedupSummary",
    "compare_runs",
    "overlap_efficiency",
]
