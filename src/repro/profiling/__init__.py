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

#: perfbench names re-exported lazily (PEP 562): an eager import here would
#: make ``python -m repro.profiling.perfbench`` execute the module twice
#: (runpy imports the package first), with a RuntimeWarning and duplicated
#: module globals.
_PERFBENCH_EXPORTS = {
    "PAPER_SHAPES",
    "PerfRecord",
    "compare_to_baseline",
    "format_table",
    "load_bench",
    "make_lookup_batch",
    "run_suite",
}


def __getattr__(name):
    if name in _PERFBENCH_EXPORTS:
        from repro.profiling import perfbench

        return getattr(perfbench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CATEGORY_LABELS",
    "breakdown_rows",
    "breakdown_report",
    "SpeedupSummary",
    "compare_runs",
    "overlap_report",
    "overlap_efficiency",
    "chunk_pipeline_report",
    "PAPER_SHAPES",
    "PerfRecord",
    "make_lookup_batch",
    "run_suite",
    "load_bench",
    "compare_to_baseline",
    "format_table",
]
