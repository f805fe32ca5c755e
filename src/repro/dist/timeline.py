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

Recording order is part of the ledger: a ledger index is a position in
recording order, release edges name earlier positions, and the ledger
digests hash the order.  :meth:`Timeline.record_batch` appends many
events in one validated call in exactly the order it is given (the
communicator's chunk pipeline appends each stage rank-major).

The ledger is stored as columns, not as one object per event: each
batch keeps the rank / start / duration arrays it was validated as, its
category and stream once, one args snapshot per distinct mapping and its
edge tuples.  The simulator and the critical-path analysis read those
columns (``len``, :meth:`Timeline.lane`, :meth:`Timeline.columns`);
:attr:`Timeline.events` materialises :class:`TimelineEvent` objects only
for a reader that asks for them.

Timelines also carry *counter samples* (:class:`CounterSample`) — named
scalar tracks such as queue depth or bytes on wire — which export as
chrome-trace ``"C"`` events and render as counter plots above the lanes.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EventCategory",
    "TimelineEvent",
    "CounterSample",
    "Timeline",
    "LedgerColumns",
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
    recording order) of the events whose completion *released* this
    one, beyond its same-stream predecessor: the simulator records every
    such dependency, so :mod:`repro.obs.critpath` infers none.  Edges
    always point backwards, to events recorded earlier.
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
    edges = tuple(map(int, release_edges))
    if len(set(edges)) != len(edges):
        edges = tuple(dict.fromkeys(edges))
    if not edges:
        return None
    if min(edges) < 0 or max(edges) >= recorded:
        bad = next(i for i in edges if not 0 <= i < recorded)
        raise ValueError(
            f"release edge {bad} does not name an already-recorded "
            f"event (ledger holds {recorded})"
        )
    return edges


def _once_per_object(items: list, apply) -> list:
    """``[apply(item, p) for p, item in enumerate(items)]``, calling
    ``apply`` once per distinct object, at its first position, in position
    order; every entry holding that object gets that one result."""
    ids = list(map(id, items))
    first_use = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    results = {
        key: apply(items[position], position)
        for key, position in sorted(first_use.items(), key=itemgetter(1))
    }
    return list(map(results.__getitem__, ids))


class LedgerColumns(NamedTuple):
    """The ledger as parallel columns (:meth:`Timeline.columns`): entry
    ``i`` of each describes ledger index ``i``.  ``stream`` and
    ``category`` hold codes into ``streams`` and ``categories``, which
    list each distinct value in order of first use."""

    rank: np.ndarray
    start: np.ndarray
    duration: np.ndarray
    stream: np.ndarray
    streams: tuple[str, ...]
    category: np.ndarray
    categories: tuple[str, ...]
    release_edges: list[tuple[int, ...] | None]


@dataclass(slots=True)
class _Part:
    """One recorded batch, or a run of consecutive single records of one
    category and stream: the ``rank`` / ``start`` / ``duration`` arrays a
    batch was validated as (lists for a run, which grows in place), and
    per event one args snapshot and one edge tuple, or ``None``."""

    rank: np.ndarray | list[int]
    start: np.ndarray | list[float]
    duration: np.ndarray | list[float]
    category: str
    stream: str
    args: list[Mapping[str, object] | None]
    release_edges: list[tuple[int, ...] | None]

    def events(self, first: int) -> Iterator[TimelineEvent]:
        """This part's events from its position ``first`` on, each with
        its own copy of its args snapshot."""
        rank, start, duration = (
            c[first:].tolist() if isinstance(c, np.ndarray) else c[first:]
            for c in (self.rank, self.start, self.duration)
        )
        n = len(rank)
        return map(
            TimelineEvent,
            rank,
            repeat(self.category, n),
            start,
            duration,
            repeat(self.stream, n),
            (None if a is None else dict(a) for a in self.args[first:]),
            self.release_edges[first:],
        )


class Timeline:
    """Append-only per-rank event ledger with category aggregation.

    The ledger is held as columns: one part per :meth:`record_batch`
    call, keeping the arrays it validated, and one per run of consecutive
    :meth:`record` calls on one category and stream.  ``len``,
    :meth:`lane` and :meth:`columns` read the parts; :attr:`events`
    builds :class:`TimelineEvent` objects only when it is read.
    """

    def __init__(self) -> None:
        self._parts: list[_Part] = []
        self._firsts: list[int] = []  # ledger index of each part's first event
        self._count = 0
        self._events: list[TimelineEvent] = []  # the materialised prefix
        self.counters: list[CounterSample] = []

    def __len__(self) -> int:
        return self._count

    @property
    def events(self) -> list[TimelineEvent]:
        """Every event in recording order; a ledger index is a position
        in this list.  Built on first read and extended by later reads
        with what was recorded since, so treat it as read-only."""
        done = len(self._events)
        if done < self._count:
            at = bisect_right(self._firsts, done) - 1
            for part, first in zip(self._parts[at:], self._firsts[at:]):
                self._events.extend(part.events(max(done - first, 0)))
        return self._events

    @classmethod
    def from_events(cls, events: Iterable[TimelineEvent]) -> "Timeline":
        """A ledger holding ``events`` exactly as given, unvalidated: a
        window of another ledger (whose release edges name indices of the
        whole), or a hand-assembled one."""
        timeline = cls()
        timeline._events = list(events)
        for event in timeline._events:
            timeline._append(event)
        return timeline

    def _append(self, event: TimelineEvent) -> None:
        """Append one event's fields to the open run of single records."""
        part = self._parts[-1] if self._parts else None
        if (
            part is None
            or type(part.rank) is not list
            or part.category is not event.category
            or part.stream is not event.stream
        ):
            part = _Part([], [], [], event.category, event.stream, [], [])
            self._parts.append(part)
            self._firsts.append(self._count)
        part.rank.append(event.rank)
        part.start.append(event.start)
        part.duration.append(event.duration)
        part.args.append(event.args)
        part.release_edges.append(event.release_edges)
        self._count += 1

    def lane(self, index: int) -> tuple[int, str]:
        """The ``(rank, stream)`` of the event at ledger ``index``."""
        if not 0 <= index < self._count:
            raise IndexError(f"ledger index {index} out of range (ledger holds {self._count})")
        at = bisect_right(self._firsts, index) - 1
        part = self._parts[at]
        return int(part.rank[index - self._firsts[at]]), part.stream

    def columns(self) -> LedgerColumns:
        """The ledger as :class:`LedgerColumns`, built from the parts
        without materialising an event."""
        parts = self._parts
        if not parts:
            empty = np.zeros(0, dtype=np.int64)
            return LedgerColumns(empty, np.zeros(0), np.zeros(0), empty, (), empty, (), [])
        sizes = np.diff([*self._firsts, self._count])
        streams: dict[str, int] = {}
        categories: dict[str, int] = {}
        stream = [streams.setdefault(part.stream, len(streams)) for part in parts]
        category = [categories.setdefault(part.category, len(categories)) for part in parts]
        return LedgerColumns(
            rank=np.concatenate([part.rank for part in parts], dtype=np.int64),
            start=np.concatenate([part.start for part in parts], dtype=np.float64),
            duration=np.concatenate([part.duration for part in parts], dtype=np.float64),
            stream=np.repeat(np.array(stream, dtype=np.int64), sizes),
            streams=tuple(streams),
            category=np.repeat(np.array(category, dtype=np.int64), sizes),
            categories=tuple(categories),
            release_edges=list(chain.from_iterable(part.release_edges for part in parts)),
        )

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
        infinite time would silently poison every critical-path walk).  ``release_edges`` must name already-recorded
        events (ledger indices below ``len(self)`` at call time) —
        dependency edges only ever point backwards.  ``args`` is copied.
        """
        _check_event(rank, start, duration)
        event = TimelineEvent(
            rank=int(rank),
            category=category,
            start=float(start),
            duration=float(duration),
            stream=str(stream),
            args=dict(args) if args else None,
            release_edges=_checked_edges(release_edges, self._count),
        )
        self._append(event)
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
    ) -> None:
        """Append one event per entry of ``ranks`` / ``starts`` /
        ``durations``, in that order.

        The ledger ends up exactly as after the equivalent sequence of
        :meth:`record` calls with the shared ``category`` and ``stream``;
        the batch is validated as a whole first, so an invalid entry
        raises the same ``ValueError`` but leaves the ledger untouched.
        ``args`` is one mapping for every event or one (or ``None``) per
        event; each distinct mapping is copied once.  ``release_edges``
        gives one edge sequence (or ``None``) per event; entry ``p`` may
        name any event before ledger index ``len(self) + p``, earlier
        entries of the batch included.  Each distinct edge object is
        validated and deduplicated once, against its first use (the
        tightest bound: later entries may name strictly more of the
        ledger), and its entries share one tuple.
        """
        rank_arr = np.array(ranks, dtype=np.int64)
        start_arr = np.array(starts, dtype=np.float64)
        duration_arr = np.array(durations, dtype=np.float64)
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
        arg_list = [args] * count if args is None or isinstance(args, Mapping) else list(args)
        edge_list = [None] * count if release_edges is None else list(release_edges)
        if len(arg_list) != count or len(edge_list) != count:
            raise ValueError(
                f"args / release_edges must have one entry per event ({count}), "
                f"got {len(arg_list)} / {len(edge_list)}"
            )
        recorded = self._count
        edge_list = _once_per_object(edge_list, lambda edges, p: _checked_edges(edges, recorded + p))
        arg_list = _once_per_object(arg_list, lambda a, p: dict(a) if a else None)
        if count:
            self._parts.append(
                _Part(rank_arr, start_arr, duration_arr, category, str(stream), arg_list, edge_list)
            )
            self._firsts.append(self._count)
            self._count += count

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

    # ------------------------------------------------------------- queries

    def events_for_rank(self, rank: int) -> list[TimelineEvent]:
        return [e for e in self.events if e.rank == rank]

    def ranks(self) -> list[int]:
        return sorted({e.rank for e in self.events})

    def streams(self) -> list[str]:
        """Stream names present in the ledger, compute lane first."""
        return sorted({e.stream for e in self.events}, key=lambda s: (s != COMPUTE_STREAM, s))

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
        events name the process and each lane.  Load the returned object,
        written out as JSON, directly in ``chrome://tracing`` or
        https://ui.perfetto.dev.
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
