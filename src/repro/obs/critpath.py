"""Critical-path analysis over simulation timelines.

The simulator's :class:`~repro.dist.timeline.Timeline` is a flat ledger
of per-(rank, stream) events, but the *schedule* that produced it is a
dependency DAG: events on one stream serialize (the stream clock), chunk
wire/decode events wait on explicit release edges (the communicator
records them — see ``TimelineEvent.release_edges``), and collectives
barrier every clock.  :class:`TimelineDag` reconstructs that DAG from the
ledger and answers the question the raw trace cannot: *which chain of
events actually set the makespan, and what would change if one stage got
faster?*

* :meth:`TimelineDag.critical_path` walks back from the event that ends
  at the makespan, at each step following the dependency with the
  greatest ``(end, is explicit edge, is same-lane predecessor, -index)``:
  the latest finisher binds; exact ties go to a recorded edge, then the
  lane, then the earliest-recorded coincident end.  The steps tile
  ``[0, makespan]``, each attributed to its event's (rank, stream,
  category) — or to ``"idle"`` where no recorded event explains a wait
  (open-loop request arrivals) — so the attribution sums *exactly* to the
  makespan: :meth:`CriticalPathResult.attribution_exact` does the sums in
  :class:`fractions.Fraction`, exact rational arithmetic, not float luck.
* :meth:`TimelineDag.speedup_if` re-schedules the whole DAG with one
  category's durations scaled and reports the predicted makespan — the
  what-if the adaptive controller (and a human) needs before touching a
  kernel.  Unexplained start delays are treated as exogenous floors
  (arrivals do not speed up because a codec did).
* :func:`highlight_trace_events` renders the extracted path as one extra
  chrome-trace lane, and :func:`critical_path_report` as an ASCII table
  for ``run_report``.

**Layout.**  The DAG is a structure of arrays indexed by ledger index:
``start``, ``duration``, ``end = start + duration``, ``rank``, an interned
stream code and the analysed-event mask (annotation spans on
``OBS_STREAM`` cover work already recorded and are not nodes).  Built
eagerly, one sort each: every event's same-lane predecessor, from the
``(lane, start, index)`` order, and the ``(end, index)`` order that
``np.searchsorted`` answers "which events end at *t*" from (within a
tolerance — parsed chrome traces round to microseconds).  Release edges
are *not* resolved up front: the walk filters them for the few dozen
events it visits (:meth:`TimelineDag.release_edges`), so an extraction
costs little more than reading the columns.  The first ``reschedule`` /
``speedup_if`` adds, once, what only a forward pass needs: a dependency
row per *distinct* edge tuple (``record_batch`` shares them) and per
distinct window of coincident ends, the collective-barrier groups, the
exogenous start floors and interned categories.

Analysis is strictly offline — nothing here runs unless asked, so the
``OBS.enabled`` zero-overhead contract is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.dist.timeline import OBS_STREAM, Timeline, TimelineEvent

__all__ = [
    "IDLE_CATEGORY",
    "CriticalStep",
    "CriticalPathResult",
    "SpeedupEstimate",
    "TimelineDag",
    "extract_critical_path",
    "critical_path_report",
    "highlight_trace_events",
    "report_json_block",
]

#: category attributed to critical-path waits no recorded event explains
IDLE_CATEGORY = "idle"


@dataclass(frozen=True)
class CriticalStep:
    """One contiguous segment of the critical path.

    ``start``/``end`` bound the *attributed* interval: the segment runs
    from the previous step's release to this event's completion, so
    consecutive steps tile ``[0, makespan]`` with no gaps or overlaps.
    ``event_index`` is the ledger index of the event the segment is
    attributed to, or ``None`` for an :data:`IDLE_CATEGORY` wait.
    """

    event_index: int | None
    rank: int
    stream: str
    category: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SpeedupEstimate:
    """What-if prediction: one category's durations scaled by ``1/factor``."""

    category: str
    factor: float
    baseline_makespan: float
    predicted_makespan: float

    @property
    def speedup(self) -> float:
        if self.predicted_makespan <= 0.0:
            return math.inf if self.baseline_makespan > 0.0 else 1.0
        return self.baseline_makespan / self.predicted_makespan


@dataclass(frozen=True)
class CriticalPathResult:
    """The extracted path plus its exact makespan attribution."""

    makespan: float
    steps: tuple[CriticalStep, ...]

    def attribution_exact(self) -> dict[tuple[int, str, str], Fraction]:
        """(rank, stream, category) -> attributed seconds, as exact
        rationals.  Summing every value reproduces ``Fraction(makespan)``
        identically — the conservation law the property tests pin."""
        totals: dict[tuple[int, str, str], Fraction] = {}
        for step in self.steps:
            key = (step.rank, step.stream, step.category)
            totals[key] = totals.get(key, Fraction(0)) + (
                Fraction(step.end) - Fraction(step.start)
            )
        return totals

    def attribution(self) -> dict[tuple[int, str, str], float]:
        """(rank, stream, category) -> attributed seconds (floats)."""
        return {k: float(v) for k, v in self.attribution_exact().items()}

    def by_category(self) -> dict[str, float]:
        """category -> attributed seconds, summed over ranks/streams."""
        totals: dict[str, float] = {}
        for (rank, stream, category), seconds in self.attribution().items():
            totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def to_json_dict(self) -> dict:
        """The machine-readable ``critical_path`` report block (see
        ``repro.obs.schema``)."""
        return {
            "makespan": self.makespan,
            "attribution": [
                {"rank": rank, "stream": stream, "category": category, "seconds": seconds}
                for (rank, stream, category), seconds in sorted(
                    self.attribution().items(), key=lambda kv: -kv[1]
                )
            ],
            "steps": [
                {
                    "event_index": step.event_index,
                    "rank": step.rank,
                    "stream": step.stream,
                    "category": step.category,
                    "start": step.start,
                    "end": step.end,
                }
                for step in self.steps
            ],
        }


@dataclass(frozen=True)
class _Plan:
    """What :meth:`TimelineDag.reschedule` needs beyond the columns;
    lists are indexed by ledger index."""

    order: list[int]  # ledger indices in (start, end, index) order
    rows: list[list[int]]  # row id -> ledger indices of one dependency set
    deps: list[tuple[int, int]]  # (explicit-edge row, coincident-end row), -1 = none
    floor: list[float]  # exogenous start; 0.0 where dependencies explain it
    group: list[int]  # barrier group (its lowest ledger index), -1 outside one
    category: np.ndarray  # interned category code per event ...
    names: list[object]  # ... and the category each code stands for


class TimelineDag:
    """Dependency DAG over one timeline's ledger, held as columns (see
    the module docstring for the layout and what is built when)."""

    def __init__(self, events: Sequence[TimelineEvent]):
        self._events = events = list(events)
        n = len(events)
        self._start = start = np.array([e.start for e in events], dtype=np.float64)
        self._duration = np.array([e.duration for e in events], dtype=np.float64)
        self._end = end = start + self._duration
        self._rank = rank = np.array([e.rank for e in events], dtype=np.int64)
        codes: dict[str, int] = {OBS_STREAM: 0}
        self._stream = stream = np.array(
            [codes.setdefault(e.stream, len(codes)) for e in events], dtype=np.int64
        )
        # Annotation spans cover work already recorded: not nodes.
        self._node = stream != 0
        self._ids = ids = np.flatnonzero(self._node)
        # Same-lane predecessor: previous event in (lane, start, index) order.
        lane = rank[ids] * len(codes) + stream[ids]
        order = np.lexsort((start[ids], lane))
        chained = lane[order[1:]] == lane[order[:-1]]
        self._lane_pred = np.full(n, -1, dtype=np.int64)
        self._lane_pred[ids[order[1:][chained]]] = ids[order[:-1][chained]]
        # (end, index) order, for "which events end at time t".
        self._by_end = ids[np.argsort(end[ids], kind="stable")]
        self._end_sorted = end[self._by_end]
        self._eps = 1e-9 * max(1.0, self.makespan)
        self._plan: _Plan | None = None

    @classmethod
    def from_timeline(cls, timeline: Timeline) -> "TimelineDag":
        """Reconstruct the DAG of ``timeline``'s ledger as recorded so far."""
        return cls(timeline.events)

    # --------------------------------------------------------------- queries

    @property
    def makespan(self) -> float:
        return float(self._end_sorted[-1]) if len(self._end_sorted) else 0.0

    def __len__(self) -> int:
        return len(self._ids)

    def release_edges(self, index: int) -> tuple[int, ...]:
        """Event ``index``'s explicit releasers: its recorded
        ``release_edges`` that name an analysed event recorded before it.
        Anything else a hand-assembled ledger may carry (negative, past
        the end, forward, itself, an annotation span) is dropped — never
        raised, never wrapped round to another event."""
        node = self._node
        return tuple(
            i for i in self._events[index].release_edges or () if 0 <= i < index and node[i]
        )

    def _ending_at(self, time) -> tuple[np.ndarray, np.ndarray]:
        """Bounds into ``_by_end`` of the events whose end matches ``time``
        (scalar or array) within the tolerance (exact in fresh ledgers; the
        tolerance absorbs the microsecond round-trip of parsed traces)."""
        lo = np.searchsorted(self._end_sorted, time - self._eps, side="left")
        return lo, np.searchsorted(self._end_sorted, time + self._eps, side="right")

    # --------------------------------------------------------- critical path

    def critical_path(self) -> CriticalPathResult:
        """Walk back from the makespan event, tiling ``[0, makespan]``
        into attributed segments (see :class:`CriticalStep`).  Explicit
        edges and the same-lane predecessor always qualify as releasers;
        events ending exactly at an event's start qualify when its lane
        alone does not explain the start (a cross-stream join or barrier)."""
        if not len(self._ids):
            return CriticalPathResult(makespan=0.0, steps=())
        events, eps = self._events, self._eps
        end, lane_preds = self._end.tolist(), self._lane_pred.tolist()
        steps: list[CriticalStep] = []
        visited: set[int] = set()
        current = int(self._by_end[-1])
        while current >= 0:
            visited.add(current)
            event = events[current]
            explicit = set(self.release_edges(current))
            lane_pred = lane_preds[current]
            candidates = list(explicit)
            if lane_pred >= 0:
                candidates.append(lane_pred)
            if lane_pred < 0 or event.start - eps > end[lane_pred]:
                lo, hi = self._ending_at(event.start)
                candidates.extend(self._by_end[lo:hi].tolist())
            candidates = [i for i in candidates if i not in visited and end[i] <= event.start + eps]
            # Latest end wins (the binding constraint); prefer explicit edges,
            # then the lane, on exact ties so the rendered path reads causally.
            binding = lambda i: (end[i], i in explicit, i == lane_pred, -i)  # noqa: E731
            pred = max(candidates, key=binding, default=-1)
            pred_end = end[pred] if pred >= 0 else 0.0
            lane = (event.rank, event.stream)
            waited = pred_end < event.start - eps
            released = event.start if waited else pred_end
            steps.append(CriticalStep(current, *lane, event.category, released, event.end))
            if waited:
                # Unexplained wait: attribute the gap honestly as idle
                # time on this event's lane instead of inflating the event.
                steps.append(CriticalStep(None, *lane, IDLE_CATEGORY, pred_end, event.start))
            current = pred
        steps.reverse()
        return CriticalPathResult(makespan=self.makespan, steps=tuple(steps))

    # -------------------------------------------------------------- what-ifs

    def _planned(self) -> _Plan:
        """The scaling-independent half of a reschedule, built on first
        use.  A barrier group is a contiguously-recorded run of identical
        spans on distinct ranks — how ``collective()`` writes them."""
        if self._plan is not None:
            return self._plan
        events, n, ids = self._events, len(self._events), self._ids
        start, end, node = self._start, self._end, self._node.tolist()
        rows: list[list[int]] = []
        shared: dict[object, tuple[int, int]] = {}

        def row_for(index: int, key: object, source: Sequence[int]) -> int:
            """Row of ``source``'s analysed events recorded before
            ``index``: one per ``key``, unless that would keep an entry
            recorded at or after ``index`` (then a row of its own)."""
            hit = shared.get(key)
            if hit is None:
                rows.append([i for i in source if 0 <= i < n and node[i]])
                hit = shared[key] = (len(rows) - 1, max(rows[-1], default=-1))
            row, top = hit
            if top >= index:
                rows.append([i for i in rows[row] if i < index])
                row = len(rows) - 1
            return row

        explicit = np.full(n, -1, dtype=np.int64)
        for index in ids.tolist():
            edges = events[index].release_edges
            if edges:  # record_batch shares one tuple among many events
                explicit[index] = row_for(index, id(edges), edges)

        names: dict[object, int] = {}
        category = np.array(
            [names.setdefault(e.category, len(names)) for e in events], dtype=np.int64
        )
        alike = self._node[1:] & self._node[:-1]  # event k+1 repeats event k's span
        for column in (category, self._stream, start, self._duration):
            alike &= column[1:] == column[:-1]
        ranks = self._rank.tolist()
        runs: list[list[int]] = []
        bounds = np.flatnonzero(np.diff(alike, prepend=False, append=False))
        for head, tail in bounds.reshape(-1, 2).tolist():
            seen: set[int] = set()
            for index in range(head, tail + 1):
                if index == head or ranks[index] in seen:
                    runs.append([])
                    seen = set()
                runs[-1].append(index)
                seen.add(ranks[index])
        group = np.full(n, -1, dtype=np.int64)
        for run in runs:
            # Events that carry edges (the pipelined metadata round) are
            # released by those edges, not by a barrier over every clock.
            if len(run) >= 2 and not any(rows[r] for r in explicit[run] if r >= 0):
                group[run] = run[0]

        lane_end = np.where(self._lane_pred >= 0, end[self._lane_pred], 0.0)
        waits = np.flatnonzero(self._node & (group < 0) & (start - self._eps > lane_end))
        joins = np.full(n, -1, dtype=np.int64)
        lo, hi = self._ending_at(start[waits])
        for index, a, b in zip(waits.tolist(), lo.tolist(), hi.tolist()):
            joins[index] = row_for(index, (a, b), self._by_end[a:b].tolist())

        ends = end.tolist()
        # The trailing sentinel makes "no row" (-1) explain nothing.
        row_end = [max((ends[i] for i in row), default=-math.inf) for row in rows]
        row_end = np.array(row_end + [-math.inf])
        explained = np.maximum(lane_end, np.maximum(row_end[explicit], row_end[joins]))
        exogenous = (group < 0) & (start - self._eps > explained)
        self._plan = _Plan(
            order=ids[np.lexsort((end[ids], start[ids]))].tolist(),
            rows=rows,
            deps=list(zip(explicit.tolist(), joins.tolist())),
            floor=np.where(exogenous, start, 0.0).tolist(),
            group=group.tolist(),
            category=category,
            names=list(names),
        )
        return self._plan

    def _forward(self, factors: Sequence[float]) -> float:
        """Forward-simulate with event ``i``'s duration times ``factors[i]``.

        An unprocessed end is ``-inf``: a dependency processed *after* its
        dependent (hand-assembled ledgers only) constrains nothing, and a
        row's latest end is reused only once every entry of it is final."""
        plan = self._planned()
        rows, deps, floor, group = plan.rows, plan.deps, plan.floor, plan.group
        lane_pred, duration = self._lane_pred.tolist(), self._duration.tolist()
        new_end = [-math.inf] * len(self._events)
        latest_of: list[float | None] = [None] * len(rows)
        group_start: dict[int, float] = {}
        makespan = 0.0
        for index in plan.order:
            first = group[index]
            if first < 0:
                begin = floor[index]
            elif first in group_start:
                begin = group_start[first]
            else:
                # A collective barriers every clock: the group starts
                # once every earlier-recorded event has finished.
                begin = group_start[first] = max(0.0, max(new_end[:first], default=0.0))
            for row in deps[index]:
                latest = latest_of[row] if row >= 0 else 0.0
                if latest is None:
                    known = [new_end[i] for i in rows[row]]
                    latest = max(known, default=0.0)
                    if min(known, default=0.0) > -math.inf:
                        latest_of[row] = latest
                if latest > begin:
                    begin = latest
            pred = lane_pred[index]
            if pred >= 0 and new_end[pred] > begin:
                begin = new_end[pred]
            finish = new_end[index] = begin + duration[index] * factors[index]
            if finish > makespan:
                makespan = finish
        return makespan

    def reschedule(self, scale: Callable[[TimelineEvent], float]) -> float:
        """Forward-simulate the DAG with per-event duration scaling and
        return the new makespan.

        Constraints honored: stream order, explicit release edges,
        inferred cross-stream joins (only where the original schedule
        shows one binding), collective barriers (a group starts when every
        earlier-recorded event finished), and exogenous start floors where
        no dependency explains an event's start (open-loop arrivals keep
        their clock).  ``scale(event) == 1.0`` for every event reproduces
        the original makespan exactly.
        """
        factors = [1.0] * len(self._events)
        for index in self._ids.tolist():
            factor = factors[index] = float(scale(self._events[index]))
            if not math.isfinite(factor) or factor < 0.0:
                raise ValueError(f"scale must be finite and >= 0, got {factor!r}")
        return self._forward(factors)

    def speedup_if(self, category: str, factor: float) -> SpeedupEstimate:
        """Predicted makespan if every ``category`` event ran ``factor``
        times faster (``factor < 1`` models a slowdown)."""
        factor = float(factor)
        if not math.isfinite(factor) or factor <= 0.0:
            raise ValueError(f"factor must be finite and > 0, got {factor!r}")
        plan = self._planned()
        scaled = np.array([str(name) == str(category) for name in plan.names], dtype=bool)
        predicted = self._forward(np.where(scaled[plan.category], 1.0 / factor, 1.0).tolist())
        return SpeedupEstimate(str(category), factor, self.makespan, predicted)


def extract_critical_path(timeline: Timeline) -> CriticalPathResult:
    """Reconstruct the DAG and extract the critical path in one call."""
    return TimelineDag.from_timeline(timeline).critical_path()


def critical_path_report(
    result: CriticalPathResult, *, title: str = "Critical path"
) -> str:
    """The ``critical_path_report`` table ``run_report`` embeds: makespan
    attribution per (rank, stream, category), heaviest first."""
    from repro.utils.tables import format_table

    rows = [
        (
            category,
            rank,
            stream,
            f"{seconds:.6f}",
            f"{100.0 * seconds / result.makespan:.1f}%" if result.makespan else "-",
        )
        for (rank, stream, category), seconds in sorted(
            result.attribution().items(), key=lambda kv: -kv[1]
        )
    ]
    table = format_table(
        ["category", "rank", "stream", "seconds", "share"],
        rows,
        title=f"{title} — makespan {result.makespan:.6f}s over {len(result.steps)} steps",
    )
    return table


def highlight_trace_events(
    result: CriticalPathResult,
    *,
    pid: int = 0,
    tid: int = 10_000,
    offset_seconds: float = 0.0,
    process_name: str | None = None,
) -> list[dict]:
    """Render the critical path as one chrome-trace highlight lane.

    Returns ``"X"`` entries (plus lane/process metadata) on a dedicated
    thread id; append them to an existing trace's ``traceEvents`` to see
    the binding chain as its own swim lane above the per-rank lanes.
    """
    entries: list[dict] = []
    if process_name is not None:
        entries.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": process_name},
            }
        )
    entries.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "critical path"},
        }
    )
    shift_us = float(offset_seconds) * 1e6
    for step in result.steps:
        entries.append(
            {
                "name": f"{step.category} (rank {step.rank})",
                "cat": "critpath",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": step.start * 1e6 + shift_us,
                "dur": step.seconds * 1e6,
                "args": {
                    "rank": step.rank,
                    "stream": step.stream,
                    "event_index": step.event_index,
                },
            }
        )
    return entries


def report_json_block(
    results: Mapping[str, CriticalPathResult]
) -> dict[str, dict]:
    """tier name -> machine-readable critical-path block (the shape the
    snapshot schema validates under ``reports.critical_path``)."""
    return {name: result.to_json_dict() for name, result in results.items()}
