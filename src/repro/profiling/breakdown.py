"""Training-time breakdown reports (Fig. 1 and Fig. 12 style).

Turns a :class:`~repro.dist.timeline.Timeline` (or a category->seconds
mapping) into the stacked-fraction rows the paper plots, compares a
baseline run against a compressed run for the end-to-end speedup numbers,
and measures *overlap efficiency* — how much of the wire time a pipelined
(per-rank-stream) run actually hides behind compute, the one definition of
hidden wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.timeline import OBS_STREAM, EventCategory, Timeline
from repro.utils.tables import format_table
from repro.utils.validation import check_count

__all__ = [
    "CATEGORY_LABELS",
    "breakdown_rows",
    "breakdown_report",
    "SpeedupSummary",
    "compare_runs",
    "overlap_efficiency",
]

CATEGORY_LABELS: dict[str, str] = {
    EventCategory.BOTTOM_MLP_FWD: "Bottom MLP (fwd)",
    EventCategory.EMB_LOOKUP: "Embedding lookup",
    EventCategory.COMPRESS: "Compression",
    EventCategory.METADATA: "Metadata all-to-all",
    EventCategory.ALLTOALL_FWD: "All-to-all (fwd)",
    EventCategory.DECOMPRESS: "Decompression",
    EventCategory.INTERACTION_FWD: "Interaction (fwd)",
    EventCategory.TOP_MLP_FWD: "Top MLP (fwd)",
    EventCategory.TOP_MLP_BWD: "Top MLP (bwd)",
    EventCategory.INTERACTION_BWD: "Interaction (bwd)",
    EventCategory.ALLTOALL_BWD: "All-to-all (bwd)",
    EventCategory.EMB_UPDATE: "Embedding update",
    EventCategory.BOTTOM_MLP_BWD: "Bottom MLP (bwd)",
    EventCategory.ALLREDUCE: "All-reduce (dense)",
    EventCategory.OPTIMIZER: "Optimizer step",
    EventCategory.TRAIN_STEP: "Trainer step (span)",
    EventCategory.PUBLISH: "Delta publication",
    EventCategory.SERVE_REQUEST: "Serving request",
    EventCategory.RETRY: "Retry backoff",
    EventCategory.CHECKPOINT: "Checkpoint save",
    EventCategory.RESTORE: "Checkpoint restore",
    EventCategory.FAULT: "Injected fault (span)",
}

#: display order for breakdown tables (forward pass, backward pass, sync)
_ORDER = list(CATEGORY_LABELS)


def breakdown_rows(category_seconds: dict[str, float]) -> list[tuple[str, float, float]]:
    """(label, seconds, fraction) rows in canonical order."""
    total = sum(category_seconds.values())
    rows = []
    for category in _ORDER:
        seconds = category_seconds.get(category, 0.0)
        if seconds == 0.0:
            continue
        fraction = seconds / total if total else 0.0
        rows.append((CATEGORY_LABELS[category], seconds, fraction))
    # Any custom categories the canonical list does not know about.
    for category, seconds in category_seconds.items():
        if category not in CATEGORY_LABELS and seconds > 0:
            rows.append((category, seconds, seconds / total if total else 0.0))
    return rows


def breakdown_report(
    source: Timeline | dict[str, float], title: str = "Training-time breakdown"
) -> str:
    """Render the per-category breakdown as an ASCII table (rank 0's, for a
    timeline)."""
    if isinstance(source, Timeline):
        category_seconds = source.total_by_category(rank=0)
    else:
        category_seconds = dict(source)
    rows = [
        (label, f"{seconds * 1e3:.3f} ms", f"{fraction * 100:.1f}%")
        for label, seconds, fraction in breakdown_rows(category_seconds)
    ]
    comm = sum(
        category_seconds.get(c, 0.0) for c in EventCategory.COMMUNICATION
    )
    total = sum(category_seconds.values())
    rows.append(("TOTAL", f"{total * 1e3:.3f} ms", "100.0%"))
    rows.append(
        ("  of which communication", f"{comm * 1e3:.3f} ms", f"{100 * comm / total if total else 0:.1f}%")
    )
    return format_table(["Stage", "Time", "Share"], rows, title=title)


def overlap_efficiency(timeline: Timeline, *, first: int = 0) -> float:
    """The share of wire time hidden behind compute, cluster-wide: total
    double-booked seconds over total communication seconds, clamped to
    [0, 1] — 0 for a fully sequential run, approaching 1 when the whole
    exchange hides behind compute.

    A rank's double-booked time is its charged seconds (the plain sum of
    its event durations) minus its busy seconds (the union of their
    intervals): time during which at least two of its streams ran at
    once.  Concurrency *across* ranks is parallelism, not overlap, so each
    rank is measured on its own before the sums.  Only the ledger from
    index ``first`` on is measured (one trainer step's window, say).
    """
    first = check_count("first", first, 0)
    columns = timeline.columns()
    # Annotation spans (obs stream) cover work already on the real
    # streams; counting them would fabricate overlap.
    real = np.array([name != OBS_STREAM for name in columns.streams], dtype=bool)
    wire = np.array([name in EventCategory.COMMUNICATION for name in columns.categories], dtype=bool)
    kept = first + np.flatnonzero(real[columns.stream[first:]])
    ranks = columns.rank[kept]
    total_overlap = total_comm = 0.0
    for rank in np.unique(ranks).tolist():
        events = kept[ranks == rank]  # in ledger order
        start, duration = columns.start[events], columns.duration[events]
        end = start + duration
        # Builtin sums over Python floats in ledger order, as a loop over
        # the events adds them.
        charged = sum(duration.tolist())
        # The union of the intervals, sorted by (start, end): one opens a
        # new merged run when it starts after every earlier one ended.
        order = np.lexsort((end, start))
        starts, reach = start[order], np.maximum.accumulate(end[order])
        opens = np.flatnonzero(np.r_[True, starts[1:] > reach[:-1]])
        busy = sum((reach[np.r_[opens[1:] - 1, -1]] - starts[opens]).tolist(), 0.0)
        total_overlap += max(0.0, charged - busy)
        total_comm += sum(duration[wire[columns.category[events]]].tolist())
    if total_comm == 0:
        return 0.0
    return min(1.0, total_overlap / total_comm)


@dataclass(frozen=True)
class SpeedupSummary:
    """End-to-end and communication speedups between two runs."""

    baseline_total: float
    optimized_total: float
    baseline_comm: float
    optimized_comm: float

    @property
    def end_to_end(self) -> float:
        return self.baseline_total / self.optimized_total

    @property
    def communication(self) -> float:
        """Forward-exchange speedup: baseline all-to-all vs compressed
        pipeline (compress + metadata + payload + decompress)."""
        return self.baseline_comm / self.optimized_comm


def compare_runs(
    baseline: dict[str, float], optimized: dict[str, float]
) -> SpeedupSummary:
    """Fig. 12's headline numbers from two category->seconds mappings."""
    pipeline_categories = (
        EventCategory.ALLTOALL_FWD,
        EventCategory.METADATA,
        EventCategory.COMPRESS,
        EventCategory.DECOMPRESS,
    )
    return SpeedupSummary(
        baseline_total=sum(baseline.values()),
        optimized_total=sum(optimized.values()),
        baseline_comm=baseline.get(EventCategory.ALLTOALL_FWD, 0.0),
        optimized_comm=sum(optimized.get(c, 0.0) for c in pipeline_categories),
    )
