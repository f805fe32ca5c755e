"""Critical-path analysis over simulation timelines.

The simulator's :class:`~repro.dist.timeline.Timeline` is a flat ledger
of per-(rank, stream) events, but the *schedule* that produced it is a
dependency DAG with two kinds of edge: each event's same-lane predecessor
(the stream clock) and the ``release_edges`` it recorded —
:class:`~repro.dist.simulator.ClusterSimulator` records every other
dependency where it makes it, so nothing is inferred from timestamps.
:class:`TimelineDag` rebuilds that DAG and answers the question the raw
trace cannot: *which chain of events actually set the makespan, and what
would change if one stage got faster?*

* :meth:`TimelineDag.critical_path` walks back from the event that ends
  at the makespan, at each step following the dependency with the
  greatest ``(end, is recorded edge, is same-lane predecessor, -index)``:
  the latest finisher binds; exact ties go to a recorded edge, then the
  lane.  The steps tile ``[0, makespan]``, each attributed to its event's
  (rank, stream, category) — or to ``"idle"`` where no dependency
  explains a wait (open-loop request arrivals, fault delays, and every
  cross-lane wait of a third-party trace without ``release_edges``) — so
  the attribution sums *exactly* to the makespan:
  :meth:`CriticalPathResult.attribution_exact` does the sums in
  :class:`fractions.Fraction`, exact rational arithmetic, not float luck.
* :meth:`TimelineDag.speedup_if` re-schedules the whole DAG with one
  category's durations scaled and reports the predicted makespan — the
  what-if the adaptive controller (and a human) needs before touching a
  kernel.  Unexplained start delays are exogenous floors (arrivals do not
  speed up because a codec did).  On a simulator ledger the prediction
  equals re-running the program with that category's seconds scaled.
* :func:`highlight_trace_events` renders the extracted path as one extra
  chrome-trace lane, and :func:`critical_path_report` as an ASCII table
  for ``run_report``.

**Layout.**  The DAG is a structure of arrays indexed by ledger index,
taken straight from the ledger's columns (:meth:`Timeline.columns`:
``start``, ``duration``, rank, stream and category codes, release edges)
plus ``end = start + duration`` and the analysed-event mask (annotation
spans on ``OBS_STREAM`` cover work already recorded and are not nodes);
the DAG keeps nothing of the timeline but those columns.  The ledger
validated every entry as it was recorded, so each release edge already
names an earlier event; the DAG only drops the edges that name an
annotation span.  Built eagerly: every event's same-lane predecessor,
from one ``(lane, start, index)`` sort.  Release edges are *not* resolved
up front: the walk filters them for the few dozen events it visits
(:meth:`TimelineDag.release_edges`), so an extraction costs little more
than reading the columns.  The first
``speedup_if`` adds, once, what only a forward pass needs: a dependency
row per *distinct* edge tuple (``record_batch`` shares them) and the
exogenous start floors.  Times match within a tolerance, because parsed
chrome traces round them to microseconds.

Analysis is strictly offline — nothing here runs unless asked, so the
``OBS.enabled`` zero-overhead contract is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from repro.dist.timeline import OBS_STREAM, Timeline

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
    """What :meth:`TimelineDag.speedup_if`'s forward pass needs beyond the
    columns; lists are indexed by ledger index."""

    order: list[int]  # ledger indices in (start, end, index) order
    rows: list[list[int]]  # row id -> ledger indices of one edge tuple
    deps: list[int]  # release-edge row per event, -1 = none
    floor: list[float]  # exogenous start; 0.0 where dependencies explain it


class TimelineDag:
    """Dependency DAG over one timeline's ledger, held as the ledger's
    columns (see the module docstring for the layout and what is built
    when).  Events recorded after construction are not part of it."""

    def __init__(self, timeline: Timeline):
        columns = timeline.columns()
        n = len(columns.rank)
        self._columns = columns
        self._start = start = columns.start
        self._duration = columns.duration
        self._end = end = start + self._duration
        self._edges = columns.release_edges
        stream = columns.stream
        # Annotation spans cover work already recorded: not nodes.
        obs = np.array([name == OBS_STREAM for name in columns.streams], dtype=bool)
        self._node = ~obs[stream]
        self._ids = ids = np.flatnonzero(self._node)
        # Same-lane predecessor: previous event in (lane, start, index) order.
        lane = columns.rank[ids] * len(columns.streams) + stream[ids]
        order = np.lexsort((start[ids], lane))
        chained = lane[order[1:]] == lane[order[:-1]]
        self._lane_pred = np.full(n, -1, dtype=np.int64)
        self._lane_pred[ids[order[1:][chained]]] = ids[order[:-1][chained]]
        self._makespan = float(end[ids].max()) if len(ids) else 0.0
        self._eps = 1e-9 * max(1.0, self._makespan)
        self._plan: _Plan | None = None

    @classmethod
    def from_timeline(cls, timeline: Timeline) -> "TimelineDag":
        """Reconstruct the DAG of ``timeline``'s ledger as recorded so far,
        from its columns."""
        return cls(timeline)

    # --------------------------------------------------------------- queries

    @property
    def makespan(self) -> float:
        return self._makespan

    def release_edges(self, index: int) -> tuple[int, ...]:
        """Event ``index``'s explicit releasers: its recorded
        ``release_edges`` (the ledger checked that each names an earlier
        event) that name an analysed event, not an annotation span."""
        node = self._node
        return tuple(i for i in self._edges[index] or () if node[i])

    # --------------------------------------------------------- critical path

    def critical_path(self) -> CriticalPathResult:
        """Walk back from the makespan event, tiling ``[0, makespan]``
        into attributed segments (see :class:`CriticalStep`).  An event's
        releasers are its recorded edges and its same-lane predecessor."""
        if not len(self._ids):
            return CriticalPathResult(makespan=0.0, steps=())
        columns, eps = self._columns, self._eps
        end, lane_preds = self._end.tolist(), self._lane_pred.tolist()
        steps: list[CriticalStep] = []
        visited: set[int] = set()
        # The makespan event recorded last.
        current = int(self._ids[np.flatnonzero(self._end[self._ids] == self._makespan)[-1]])
        while current >= 0:
            visited.add(current)
            start = float(self._start[current])
            explicit = set(self.release_edges(current))
            lane_pred = lane_preds[current]
            candidates = [
                i for i in (*explicit, lane_pred)
                if i >= 0 and i not in visited and end[i] <= start + eps
            ]
            # Latest end wins (the binding constraint); prefer recorded edges,
            # then the lane, on exact ties so the rendered path reads causally.
            binding = lambda i: (end[i], i in explicit, i == lane_pred, -i)  # noqa: E731
            pred = max(candidates, key=binding, default=-1)
            pred_end = end[pred] if pred >= 0 else 0.0
            lane = (int(columns.rank[current]), columns.streams[columns.stream[current]])
            category = columns.categories[columns.category[current]]
            waited = pred_end < start - eps
            released = start if waited else pred_end
            steps.append(CriticalStep(current, *lane, category, released, end[current]))
            if waited:
                # Unexplained wait: attribute the gap honestly as idle
                # time on this event's lane instead of inflating the event.
                steps.append(CriticalStep(None, *lane, IDLE_CATEGORY, pred_end, start))
            current = pred
        steps.reverse()
        return CriticalPathResult(makespan=self.makespan, steps=tuple(steps))

    # -------------------------------------------------------------- what-ifs

    def _planned(self) -> _Plan:
        """The scaling-independent half of a what-if, built on first use."""
        if self._plan is not None:
            return self._plan
        all_edges, ids = self._edges, self._ids
        start, end, node = self._start, self._end, self._node.tolist()
        rows: list[list[int]] = []
        shared: dict[int, int] = {}
        deps = np.full(len(all_edges), -1, dtype=np.int64)
        for index in ids.tolist():
            edges = all_edges[index]
            if not edges:
                continue
            # One row per shared tuple (record_batch shares them): the
            # ledger checked it against its first user, so every entry is
            # recorded before each event that shares it.
            row = shared.get(id(edges))
            if row is None:
                rows.append([i for i in edges if node[i]])
                row = shared[id(edges)] = len(rows) - 1
            deps[index] = row

        ends = end.tolist()
        # The trailing sentinel makes "no row" (-1) explain nothing.
        row_end = [max((ends[i] for i in row), default=-math.inf) for row in rows]
        row_end = np.array(row_end + [-math.inf])
        lane_end = np.where(self._lane_pred >= 0, end[self._lane_pred], 0.0)
        exogenous = start - self._eps > np.maximum(lane_end, row_end[deps])
        self._plan = _Plan(
            order=ids[np.lexsort((end[ids], start[ids]))].tolist(),
            rows=rows,
            deps=deps.tolist(),
            floor=np.where(exogenous, start, 0.0).tolist(),
        )
        return self._plan

    def _forward(self, factors: Sequence[float]) -> float:
        """Forward-simulate with event ``i``'s duration times ``factors[i]``.

        Events are processed in start order, so a releaser recorded earlier
        may be processed after the event it released when it starts later.
        Its end is ``-inf`` until then and constrains nothing, and a row's
        latest end is reused only once every entry of it is final."""
        plan = self._planned()
        rows, deps, floor = plan.rows, plan.deps, plan.floor
        lane_pred, duration = self._lane_pred.tolist(), self._duration.tolist()
        new_end = [-math.inf] * len(self._edges)
        latest_of: list[float | None] = [None] * len(rows)
        makespan = 0.0
        for index in plan.order:
            begin = floor[index]
            row = deps[index]
            if row >= 0:
                latest = latest_of[row]
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

    def speedup_if(self, category: str, factor: float) -> SpeedupEstimate:
        """Predicted makespan if every ``category`` event ran ``factor``
        times faster (``factor < 1`` models a slowdown).

        The forward pass honours stream order, recorded release edges, and
        exogenous start floors where no dependency explains an event's
        start (open-loop arrivals and fault delays keep their clock).
        ``factor == 1.0`` reproduces the original makespan exactly.
        """
        factor = float(factor)
        if not math.isfinite(factor) or factor <= 0.0:
            raise ValueError(f"factor must be finite and > 0, got {factor!r}")
        columns = self._columns
        scaled = np.array([str(name) == str(category) for name in columns.categories], dtype=bool)
        predicted = self._forward(np.where(scaled[columns.category], 1.0 / factor, 1.0).tolist())
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


#: chrome-trace thread id of the critical-path highlight lane
HIGHLIGHT_TID = 10_000


def highlight_trace_events(
    result: CriticalPathResult,
    *,
    pid: int = 0,
    offset_seconds: float = 0.0,
) -> list[dict]:
    """Render the critical path as one chrome-trace highlight lane.

    Returns ``"X"`` entries (plus lane metadata) on a dedicated
    thread id, :data:`HIGHLIGHT_TID`; append them to an existing trace's ``traceEvents`` to see
    the binding chain as its own swim lane above the per-rank lanes.
    """
    entries: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": HIGHLIGHT_TID,
            "args": {"name": "critical path"},
        }
    ]
    shift_us = float(offset_seconds) * 1e6
    for step in result.steps:
        entries.append(
            {
                "name": f"{step.category} (rank {step.rank})",
                "cat": "critpath",
                "ph": "X",
                "pid": pid,
                "tid": HIGHLIGHT_TID,
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
