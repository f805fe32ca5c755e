"""Per-rank event timeline: what every simulated GPU did, and when.

:class:`Timeline` is the ledger behind every breakdown figure (Figs. 1 and
12): each simulated operation appends a :class:`TimelineEvent` tagged with
its rank, an :class:`EventCategory`, the *stream* it ran on (``compute``
for device kernels, ``comm`` for wire occupancy — per-rank streams are how
the simulator models compression overlapping the exchange), a start time,
and a duration.  The profiling layer aggregates these into
category->seconds mappings and overlap-efficiency reports.

:class:`EventCategory` enumerates the 15 stages of one hybrid-parallel
DLRM iteration, in execution order — the forward pass, the 4-stage
compressed exchange (① compress, ② metadata, ③ payload, ④ decompress),
the backward pass, and the dense synchronization/update — plus the
annotation categories the observability layer records (trainer-step and
serving-request spans, delta publications) on the dedicated
``OBS_STREAM`` lane, which time accounting ignores.

Recording order is part of the ledger's meaning: a ledger index is a
position in ``Timeline.events``, release edges name earlier positions,
and :mod:`repro.obs.critpath` reads a contiguous run of identical spans
on distinct ranks as one collective.  :meth:`Timeline.record_batch`
appends many events in one validated call and keeps exactly the order it
is given, so bulk producers (the communicator's chunk pipeline appends
each stage rank-major) stay responsible for that order.

Timelines also carry *counter samples* (:class:`CounterSample`) — named
scalar tracks such as queue depth or bytes on wire — which export as
chrome-trace ``"C"`` events and render as counter plots above the lanes.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "EventCategory",
    "TimelineEvent",
    "CounterSample",
    "Timeline",
    "COMPUTE_STREAM",
    "COMM_STREAM",
    "OBS_STREAM",
    "MAX_SECONDS",
]


class EventCategory(str, Enum):
    """Stage labels for simulated events (string-valued, dict-key safe)."""

    BOTTOM_MLP_FWD = "bottom_mlp_fwd"
    EMB_LOOKUP = "emb_lookup"
    COMPRESS = "compress"
    METADATA = "metadata"
    ALLTOALL_FWD = "alltoall_fwd"
    DECOMPRESS = "decompress"
    INTERACTION_FWD = "interaction_fwd"
    TOP_MLP_FWD = "top_mlp_fwd"
    TOP_MLP_BWD = "top_mlp_bwd"
    INTERACTION_BWD = "interaction_bwd"
    ALLTOALL_BWD = "alltoall_bwd"
    EMB_UPDATE = "emb_update"
    BOTTOM_MLP_BWD = "bottom_mlp_bwd"
    ALLREDUCE = "allreduce"
    OPTIMIZER = "optimizer"
    # annotation categories (observability spans — not simulated work)
    TRAIN_STEP = "train_step"
    PUBLISH = "publish"
    SERVE_REQUEST = "serve_request"
    # fault-tolerance categories: RETRY/CHECKPOINT/RESTORE are real charged
    # work (backoff waits, snapshot/reload memcpys); FAULT is an annotation
    # span marking an injected fault's window on the OBS lane
    RETRY = "retry"
    CHECKPOINT = "checkpoint"
    RESTORE = "restore"
    FAULT = "fault"

    def __str__(self) -> str:  # keep reports/keys readable
        return self.value


#: Categories that occupy the wire rather than the device — the "of which
#: communication" rows of the breakdown reports.
EventCategory.COMMUNICATION = (
    EventCategory.METADATA,
    EventCategory.ALLTOALL_FWD,
    EventCategory.ALLTOALL_BWD,
    EventCategory.ALLREDUCE,
)


#: default stream names: device kernels vs wire occupancy
COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"
#: annotation lane for observability spans — events here mark *intervals*
#: (a whole trainer step, one serving request) over work already recorded
#: on the real streams, so :meth:`Timeline.total_by_category` and the
#: profiling reports exclude them to avoid double counting.
OBS_STREAM = "obs"
#: the bound on every time a ledger holds, in seconds: the chrome-trace
#: export writes microseconds, and a larger time would overflow to
#: ``Infinity``, which is not JSON
MAX_SECONDS = sys.float_info.max / 1e6


@dataclass(frozen=True, eq=True)
class TimelineEvent:
    """One simulated operation on one rank's clock.

    ``args`` carries optional structured labels (e.g. ``{"exchange": 3,
    "chunk": 1, "chunks": 8}`` for one chunk of a pipelined exchange);
    they ride into the chrome-trace export verbatim, so per-chunk events
    are distinguishable in the rendered timeline.

    ``release_edges`` optionally names the ledger indices (positions in
    ``Timeline.events``) of the events whose completion *released* this
    one — the communicator records them where it knows the chunk/slot
    release order exactly, so dependency-DAG reconstruction
    (:mod:`repro.obs.critpath`) does not have to infer those edges from
    coincident timestamps.  Edges always point backwards: every index
    refers to an event recorded earlier.
    """

    rank: int
    category: str
    start: float
    duration: float
    stream: str = COMPUTE_STREAM
    args: Mapping[str, object] | None = field(default=None, compare=True, hash=False)
    release_edges: tuple[int, ...] | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True, eq=True)
class CounterSample:
    """One point on a named counter track (queue depth, bytes on wire).

    Counter tracks are step functions over simulated time: each sample
    sets the track's value from ``time`` onward.  They export as chrome
    ``"ph": "C"`` events and render as plots above the event lanes.
    """

    name: str
    time: float
    value: float


def _check_event(rank: int, start: float, duration: float) -> None:
    """The one validity rule for a ledger entry, shared by
    :meth:`Timeline.record` and :meth:`Timeline.record_batch`: a
    non-negative rank and times in ``[0, MAX_SECONDS)`` (the chained
    comparisons are False for NaN, which ``x < 0`` alone lets through)."""
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank!r}")
    if not 0.0 <= duration < MAX_SECONDS:
        raise ValueError(f"duration must be finite, >= 0 and < MAX_SECONDS, got {duration!r}")
    if not 0.0 <= start < MAX_SECONDS:
        raise ValueError(f"start must be finite, >= 0 and < MAX_SECONDS, got {start!r}")


def _checked_edges(
    release_edges: Sequence[int] | None, recorded: int
) -> tuple[int, ...] | None:
    """Deduplicate (first occurrence wins) one event's release edges and
    check that each names one of the ``recorded`` events before it."""
    if release_edges is None:
        return None
    edges = tuple(dict.fromkeys(int(i) for i in release_edges))
    if not edges:
        return None
    if min(edges) < 0 or max(edges) >= recorded:
        bad = next(i for i in edges if not 0 <= i < recorded)
        raise ValueError(
            f"release edge {bad} does not name an already-recorded "
            f"event (ledger holds {recorded})"
        )
    return edges


class Timeline:
    """Append-only per-rank event ledger with category aggregation.

    :attr:`events` is a plain ``list[TimelineEvent]`` in recording order;
    a ledger index is a position in it.
    """

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []
        self.counters: list[CounterSample] = []

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        rank: int,
        category: str,
        start: float,
        duration: float,
        stream: str = COMPUTE_STREAM,
        args: Mapping[str, object] | None = None,
        release_edges: Sequence[int] | None = None,
    ) -> TimelineEvent:
        """Append one event and return it.

        ``start`` and ``duration`` must be finite and ``>= 0`` (a NaN or
        infinite time would silently poison :meth:`span` and every
        critical-path walk).  ``release_edges`` must name already-recorded
        events (indices into :attr:`events` at call time) — dependency
        edges only ever point backwards.
        """
        _check_event(rank, start, duration)
        event = TimelineEvent(
            rank=int(rank),
            category=category,
            start=float(start),
            duration=float(duration),
            stream=str(stream),
            args=dict(args) if args else None,
            release_edges=_checked_edges(release_edges, len(self.events)),
        )
        self.events.append(event)
        return event

    def record_batch(
        self,
        ranks: Sequence[int],
        category: str,
        starts: Sequence[float],
        durations: Sequence[float],
        stream: str = COMPUTE_STREAM,
        args: Mapping[str, object] | Sequence[Mapping[str, object] | None] | None = None,
        release_edges: Sequence[Sequence[int] | None] | None = None,
    ) -> list[TimelineEvent]:
        """Append one event per entry of ``ranks`` / ``starts`` /
        ``durations``, in that order, and return them.

        The ledger ends up exactly as after the equivalent sequence of
        :meth:`record` calls with the shared ``category`` and ``stream``;
        the batch is validated as a whole first, so an invalid entry
        raises the same ``ValueError`` but leaves the ledger untouched.
        ``args`` is one mapping for every event or one (or ``None``) per
        event, copied either way.  ``release_edges`` gives one edge
        sequence (or ``None``) per event; entry ``p`` may name any event
        before ledger index ``len(events) + p``, earlier entries of the
        batch included.  Passing the *same object* for several entries —
        a metadata round released by one set of chunk kernels, the decode
        chunks of every rank with one chunk count — validates and
        deduplicates it once and stores one shared tuple.

        Order is the caller's to keep: the exchange engine appends each
        stage rank-major (see ``Communicator._charge_pipeline``) because
        critical-path analysis reads contiguous identical spans on
        distinct ranks as one collective.
        """
        rank_arr = np.asarray(ranks, dtype=np.int64)
        start_arr = np.asarray(starts, dtype=np.float64)
        duration_arr = np.asarray(durations, dtype=np.float64)
        count = rank_arr.size
        if rank_arr.ndim != 1 or start_arr.shape != (count,) or duration_arr.shape != (count,):
            raise ValueError(
                "ranks, starts and durations must be equal-length 1-D sequences, got "
                f"shapes {rank_arr.shape}, {start_arr.shape}, {duration_arr.shape}"
            )
        valid = (
            (rank_arr >= 0)
            & (start_arr >= 0)
            & (start_arr < MAX_SECONDS)
            & (duration_arr >= 0)
            & (duration_arr < MAX_SECONDS)
        )
        if not valid.all():
            bad = int(np.argmin(valid))  # first offender, as record() would hit it
            _check_event(rank_arr[bad], start_arr[bad], duration_arr[bad])
        if args is None or isinstance(args, Mapping):
            arg_list = [args] * count
        else:
            arg_list = list(args)
        base = len(self.events)
        if release_edges is None:
            edge_list: list[tuple[int, ...] | None] = [None] * count
        else:
            checked: dict[int, tuple[int, ...] | None] = {}
            edge_list = []
            for position, edges in enumerate(release_edges):
                key = id(edges)
                if key not in checked:
                    # First use is the tightest bound: later entries may
                    # name strictly more of the ledger.
                    checked[key] = _checked_edges(edges, base + position)
                edge_list.append(checked[key])
        if len(arg_list) != count or len(edge_list) != count:
            raise ValueError(
                f"args / release_edges must have one entry per event ({count}), "
                f"got {len(arg_list)} / {len(edge_list)}"
            )
        stream = str(stream)
        events = [
            TimelineEvent(rank, category, start, duration, stream, dict(a) if a else None, edges)
            for rank, start, duration, a, edges in zip(
                rank_arr.tolist(), start_arr.tolist(), duration_arr.tolist(), arg_list, edge_list
            )
        ]
        self.events.extend(events)
        return events

    def record_counter(self, name: str, time: float, value: float) -> CounterSample:
        """Append one sample to the named counter track and return it.

        ``time`` follows :meth:`record`'s rule for a start and ``value``
        must be finite, so the chrome-trace export stays valid JSON."""
        if not name:
            raise ValueError("counter name must be non-empty")
        if not 0.0 <= time < MAX_SECONDS:
            raise ValueError(f"time must be finite, >= 0 and < MAX_SECONDS, got {time!r}")
        if not -math.inf < value < math.inf:
            raise ValueError(f"value must be finite, got {value!r}")
        sample = CounterSample(name=str(name), time=float(time), value=float(value))
        self.counters.append(sample)
        return sample

    def counter_track(self, name: str) -> list[CounterSample]:
        """Samples of one counter track, in time order."""
        return sorted(
            (s for s in self.counters if s.name == name), key=lambda s: s.time
        )

    def counter_names(self) -> list[str]:
        return sorted({s.name for s in self.counters})

    # ------------------------------------------------------------- queries

    def events_for_rank(self, rank: int) -> list[TimelineEvent]:
        return [e for e in self.events if e.rank == rank]

    def events_in_category(self, category: str) -> list[TimelineEvent]:
        return [e for e in self.events if e.category == category]

    def ranks(self) -> list[int]:
        return sorted({e.rank for e in self.events})

    def streams(self) -> list[str]:
        """Stream names present in the ledger, compute lane first."""
        return sorted({e.stream for e in self.events}, key=lambda s: (s != COMPUTE_STREAM, s))

    def span(self, rank: int | None = None) -> float:
        """Latest event end on ``rank`` (or across all ranks)."""
        ends = [e.end for e in self.events if rank is None or e.rank == rank]
        return max(ends, default=0.0)

    def total_by_category(self, rank: int | None = None) -> dict[str, float]:
        """Category -> total seconds, for one rank or summed over all.

        Annotation spans on :data:`OBS_STREAM` cover work already recorded
        on the real streams, so they are excluded here.
        """
        totals: dict[str, float] = {}
        for e in self.events:
            if rank is not None and e.rank != rank:
                continue
            if e.stream == OBS_STREAM:
                continue
            totals[e.category] = totals.get(e.category, 0.0) + e.duration
        return totals

    # ------------------------------------------------------------- export

    def to_chrome_trace(self, *, process_name: str = "cluster-sim") -> dict:
        """Export the ledger as Chrome ``chrome://tracing`` / Perfetto JSON.

        Every event becomes a complete-duration (``"ph": "X"``) event with
        microsecond timestamps; every ``(rank, stream)`` pair maps to its
        own thread id inside a single process, so overlapped compute/comm
        events render side by side instead of stacked.  A single-stream
        ledger keeps the legacy ``tid == rank`` mapping.  ``"M"`` metadata
        events name the process and each lane.  Load the returned object
        (or the file written by :meth:`dump_chrome_trace`) directly in
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        streams = self.streams()
        n_streams = max(1, len(streams))
        stream_index = {stream: i for i, stream in enumerate(streams)}

        def lane(rank: int, stream: str) -> int:
            if n_streams == 1:
                return rank
            return rank * n_streams + stream_index[stream]

        trace_events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        streams_by_rank: dict[int, set[str]] = {}
        for e in self.events:
            streams_by_rank.setdefault(e.rank, set()).add(e.stream)
        for rank in self.ranks():
            for stream in streams:
                if stream not in streams_by_rank[rank]:
                    continue
                label = f"rank {rank}" if n_streams == 1 else f"rank {rank} [{stream}]"
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 0,
                        "tid": lane(rank, stream),
                        "args": {"name": label},
                    }
                )
        for e in self.events:
            entry = {
                "name": str(e.category),
                "cat": "sim",
                "ph": "X",
                "pid": 0,
                "tid": lane(e.rank, e.stream),
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
                # Non-standard members (viewers ignore them): the exact
                # (rank, stream) identity and the dependency edges, so
                # `from_chrome_trace` round-trips the ledger without
                # parsing lane labels.
                "rank": e.rank,
                "stream": e.stream,
            }
            if e.release_edges is not None:
                entry["release_edges"] = list(e.release_edges)
            if e.args:
                entry["args"] = dict(e.args)
            trace_events.append(entry)
        for sample in self.counters:
            trace_events.append(
                {
                    "name": sample.name,
                    "cat": "obs",
                    "ph": "C",
                    "pid": 0,
                    "tid": 0,
                    "ts": sample.time * 1e6,
                    "args": {"value": sample.value},
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    @classmethod
    def from_chrome_trace(cls, trace: Mapping[str, object]) -> "Timeline":
        """Rebuild a ledger from :meth:`to_chrome_trace` output.

        Complete-duration (``"X"``) entries become events — the exact
        (rank, stream) identity and any ``release_edges`` come from the
        non-standard members the exporter writes; traces from other tools
        (without those members) fall back to ``"rank N [stream]"`` lane
        labels.  Counter (``"C"``) entries become counter samples.
        Timestamps convert back from microseconds, so start/duration agree
        with the original ledger to float rounding (the analysis layer
        matches times with a tolerance for exactly this reason).
        """
        entries = trace.get("traceEvents", [])
        lanes: dict[int, tuple[int, str]] = {}
        for entry in entries:
            if entry.get("ph") != "M" or entry.get("name") != "thread_name":
                continue
            label = str(entry.get("args", {}).get("name", ""))
            match = re.fullmatch(r"rank (\d+)(?: \[(.+)\])?", label)
            if match:
                stream = match.group(2) or COMPUTE_STREAM
                lanes[int(entry["tid"])] = (int(match.group(1)), stream)
        timeline = cls()
        for entry in entries:
            ph = entry.get("ph")
            if ph == "C":
                timeline.record_counter(
                    str(entry["name"]),
                    float(entry["ts"]) / 1e6,
                    float(entry.get("args", {}).get("value", 0.0)),
                )
                continue
            if ph != "X":
                continue
            if "rank" in entry:
                rank, stream = int(entry["rank"]), str(entry["stream"])
            else:
                rank, stream = lanes.get(int(entry.get("tid", 0)), (int(entry.get("tid", 0)), COMPUTE_STREAM))
            timeline.record(
                rank,
                str(entry["name"]),
                float(entry["ts"]) / 1e6,
                float(entry.get("dur", 0.0)) / 1e6,
                stream=stream,
                args=entry.get("args"),
                release_edges=entry.get("release_edges"),
            )
        return timeline

    def dump_chrome_trace(self, path: str | Path, *, process_name: str = "cluster-sim") -> Path:
        """Write :meth:`to_chrome_trace` JSON to ``path`` and return it.

        Missing parent directories are created.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(process_name=process_name)))
        return path
