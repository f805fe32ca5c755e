"""Training-time breakdown reports (Fig. 1 and Fig. 12 style).

Turns a :class:`~repro.dist.timeline.Timeline` (or a category->seconds
mapping) into the stacked-fraction rows the paper plots, compares a
baseline run against a compressed run for the end-to-end speedup numbers,
and measures *overlap efficiency* — how much of the wire time a pipelined
(per-rank-stream) run actually hides behind compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist.timeline import (
    COMM_STREAM,
    COMPUTE_STREAM,
    OBS_STREAM,
    EventCategory,
    Timeline,
)
from repro.utils.tables import format_table

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


def overlap_report(timeline: Timeline) -> dict[int, dict[str, float]]:
    """Per-rank overlap accounting from a (possibly multi-stream) timeline.

    For each rank: ``busy`` is the union of all its event intervals,
    ``charged`` the plain sum of durations, ``overlapped`` their
    difference (time during which at least two streams were double-booked
    — zero for any sequential run), ``comm`` the charged wire seconds,
    and ``efficiency`` the fraction of wire time hidden behind compute,
    ``overlapped / comm`` (clamped to [0, 1]).
    """
    report: dict[int, dict[str, float]] = {}
    for rank in timeline.ranks():
        # Annotation spans (obs stream) cover work already on the real
        # streams; counting them would fabricate overlap.
        events = [e for e in timeline.events_for_rank(rank) if e.stream != OBS_STREAM]
        charged = sum(e.duration for e in events)
        merged = _merge_intervals([(e.start, e.end) for e in events])
        busy = sum((end - start for start, end in merged), 0.0)
        overlapped = max(0.0, charged - busy)
        comm = sum(
            e.duration for e in events if e.category in EventCategory.COMMUNICATION
        )
        report[rank] = {
            "charged": charged,
            "busy": busy,
            "overlapped": overlapped,
            "comm": comm,
            "efficiency": min(1.0, overlapped / comm) if comm > 0 else 0.0,
        }
    return report


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    merged: list[tuple[float, float]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _overlap_with_merged(span: tuple[float, float], merged: list[tuple[float, float]]) -> float:
    """Length of ``span``'s intersection with pre-merged disjoint intervals."""
    start, end = span
    return sum(
        max(0.0, min(end, e) - max(start, s)) for s, e in merged if s < end and e > start
    )


def chunk_pipeline_report(timeline: Timeline) -> dict[int, dict[str, float]]:
    """Per-rank accounting of the chunk-level pipelined wire.

    Chunk events are the comm-stream events recorded with ``chunk`` args:
    one per wire chunk of every ``Communicator`` all-to-all, compressed or
    not, overlapped or not.  For each rank:

    * ``chunks`` — number of chunk wire events;
    * ``wire`` — their total charged wire seconds;
    * ``stall`` — wire-port idle time *inside* the pipeline: gaps between
      consecutive chunk events of one exchange, i.e. the wire waiting on a
      chunk's compression (zero for a perfectly fed pipeline);
    * ``hidden`` — the part of the chunked wire time that ran while the
      rank's compute stream was busy (compression/decode/cross-stage
      kernels), i.e. the wire the pipeline actually hid;
    * ``hidden_fraction`` — ``hidden / wire`` (0 with no chunk events).
    """
    report: dict[int, dict[str, float]] = {}
    for rank in timeline.ranks():
        events = timeline.events_for_rank(rank)
        chunked = [
            e
            for e in events
            if e.stream == COMM_STREAM and e.args and "chunk" in e.args
        ]
        if not chunked:
            continue
        wire = sum(e.duration for e in chunked)
        by_exchange: dict[object, list] = {}
        for e in chunked:
            by_exchange.setdefault(e.args.get("exchange"), []).append(e)
        stall = 0.0
        for group in by_exchange.values():
            group.sort(key=lambda e: (e.start, e.end))
            stall += sum(
                max(0.0, later.start - earlier.end)
                for earlier, later in zip(group, group[1:])
            )
        compute_intervals = _merge_intervals(
            [
                (e.start, e.end)
                for e in events
                if e.stream == COMPUTE_STREAM and e.duration > 0
            ]
        )
        hidden = sum(
            _overlap_with_merged((e.start, e.end), compute_intervals) for e in chunked
        )
        report[rank] = {
            "chunks": float(len(chunked)),
            "wire": wire,
            "stall": stall,
            "hidden": hidden,
            "hidden_fraction": hidden / wire if wire > 0 else 0.0,
        }
    return report


def overlap_efficiency(timeline: Timeline) -> float:
    """Cluster-wide overlap efficiency: total double-booked seconds over
    total wire seconds — 0 for a fully sequential run, approaching 1 when
    the whole exchange hides behind compute."""
    per_rank = overlap_report(timeline)
    total_comm = sum(r["comm"] for r in per_rank.values())
    if total_comm == 0:
        return 0.0
    total_overlap = sum(r["overlapped"] for r in per_rank.values())
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
