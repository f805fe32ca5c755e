"""Reference critical-path analyser: the object-per-event ``TimelineDag``.

This is ``repro.obs.critpath.TimelineDag`` exactly as it stood at commit
``dab4f9a`` (one ``_Node`` per event, release edges filtered eagerly for
every event), kept test-only as the differential oracle for the
column-based analyser that replaced it: ``test_critpath_differential.py``
requires ``==`` on every ``CriticalPathResult`` and every rescheduled
makespan.  Only the result types are imported from ``src`` so the two
sides compare as the same dataclasses; do not "fix" or speed this file up.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable

from repro.dist.timeline import OBS_STREAM, Timeline, TimelineEvent
from repro.obs.critpath import (
    IDLE_CATEGORY,
    CriticalPathResult,
    CriticalStep,
    SpeedupEstimate,
)


class _Node:
    __slots__ = ("event", "index", "lane_pred", "explicit", "group", "new_end")

    def __init__(self, event: TimelineEvent, index: int):
        self.event = event
        self.index = index  # ledger index
        self.lane_pred: int | None = None  # ledger index of same-lane predecessor
        self.explicit: tuple[int, ...] = ()  # ledger indices of release edges
        self.group: int | None = None  # collective-barrier group id
        self.new_end: float = 0.0


class TimelineDag:
    """Dependency DAG reconstructed from one timeline's event ledger."""

    def __init__(self, nodes: dict[int, _Node], groups: list[list[int]], eps: float):
        self._nodes = nodes
        self._groups = groups
        self._eps = eps
        self._ends_sorted = sorted(
            ((node.event.end, index) for index, node in nodes.items())
        )
        self._end_values = [end for end, _ in self._ends_sorted]

    # ---------------------------------------------------------- construction

    @classmethod
    def from_timeline(cls, timeline: Timeline) -> "TimelineDag":
        """Reconstruct the DAG: stream-order edges, explicit release
        edges, and collective-barrier groups (contiguously-recorded runs
        of identical spans on distinct ranks — how ``collective()``
        writes them)."""
        nodes: dict[int, _Node] = {}
        for index, event in enumerate(timeline.events):
            if event.stream == OBS_STREAM:
                continue  # annotation spans cover work already recorded
            nodes[index] = _Node(event, index)

        lanes: dict[tuple[int, str], list[int]] = {}
        for index, node in nodes.items():
            lanes.setdefault((node.event.rank, node.event.stream), []).append(index)
        for members in lanes.values():
            members.sort(key=lambda i: (nodes[i].event.start, i))
            for prev, cur in zip(members, members[1:]):
                nodes[cur].lane_pred = prev

        for index, node in nodes.items():
            if node.event.release_edges:
                node.explicit = tuple(
                    i for i in node.event.release_edges if i in nodes and i < index
                )

        groups: list[list[int]] = []
        ordered = sorted(nodes)
        run: list[int] = []

        def flush() -> None:
            # A genuine collective() barrier: one identical span per rank,
            # recorded contiguously, with no explicit release edges (events
            # that carry edges — e.g. the pipelined metadata round — are
            # released by those edges, not by a barrier over every clock).
            if (
                len(run) >= 2
                and len({nodes[i].event.rank for i in run}) == len(run)
                and all(not nodes[i].explicit for i in run)
            ):
                gid = len(groups)
                groups.append(list(run))
                for i in run:
                    nodes[i].group = gid

        for index in ordered:
            event = nodes[index].event
            if run:
                head = nodes[run[0]].event
                same = (
                    index == run[-1] + 1
                    and event.category == head.category
                    and event.stream == head.stream
                    and event.start == head.start
                    and event.duration == head.duration
                    and event.rank not in {nodes[i].event.rank for i in run}
                )
                if not same:
                    flush()
                    run.clear()
            run.append(index)
        flush()

        makespan = max((n.event.end for n in nodes.values()), default=0.0)
        eps = 1e-9 * max(1.0, makespan)
        return cls(nodes, groups, eps)

    # --------------------------------------------------------------- queries

    @property
    def makespan(self) -> float:
        return self._end_values[-1] if self._end_values else 0.0

    def __len__(self) -> int:
        return len(self._nodes)

    def _ending_at(self, time: float) -> list[int]:
        """Ledger indices of events whose end matches ``time`` within the
        tolerance (exact in fresh ledgers; the tolerance absorbs the
        microsecond round-trip of parsed chrome traces)."""
        lo = bisect.bisect_left(self._end_values, time - self._eps)
        hi = bisect.bisect_right(self._end_values, time + self._eps)
        return [index for _, index in self._ends_sorted[lo:hi]]

    def _releaser(self, index: int, visited: set[int]) -> int | None:
        """The latest-finishing dependency of one event: explicit release
        edges and the same-lane predecessor always qualify; events ending
        exactly at this event's start qualify when the lane alone does not
        explain the start (a cross-stream join or collective barrier)."""
        node = self._nodes[index]
        event = node.event
        candidates: list[int] = [i for i in node.explicit if i not in visited]
        lane_pred = node.lane_pred
        gap = event.start - self._eps > (
            self._nodes[lane_pred].event.end if lane_pred is not None else 0.0
        )
        if lane_pred is not None and lane_pred not in visited:
            candidates.append(lane_pred)
        if gap or lane_pred is None:
            candidates.extend(
                i for i in self._ending_at(event.start) if i != index and i not in visited
            )
        candidates = [
            i for i in candidates if self._nodes[i].event.end <= event.start + self._eps
        ]
        if not candidates:
            return None
        # Latest end wins (the binding constraint); prefer explicit edges,
        # then the lane, on exact ties so the rendered path reads causally.
        def priority(i: int) -> tuple:
            n = self._nodes[i]
            return (n.event.end, i in node.explicit, i == lane_pred, -i)

        return max(candidates, key=priority)

    # --------------------------------------------------------- critical path

    def critical_path(self) -> CriticalPathResult:
        """Walk back from the makespan event, tiling ``[0, makespan]``
        into attributed segments (see :class:`CriticalStep`)."""
        if not self._nodes:
            return CriticalPathResult(makespan=0.0, steps=())
        terminal = max(self._nodes, key=lambda i: (self._nodes[i].event.end, i))
        steps: list[CriticalStep] = []
        visited: set[int] = set()
        current: int | None = terminal
        while current is not None:
            visited.add(current)
            event = self._nodes[current].event
            pred = self._releaser(current, visited)
            pred_end = self._nodes[pred].event.end if pred is not None else 0.0
            if pred_end < event.start - self._eps:
                # Unexplained wait: attribute the gap honestly as idle
                # time on this event's lane instead of inflating the event.
                steps.append(
                    CriticalStep(
                        event_index=current,
                        rank=event.rank,
                        stream=event.stream,
                        category=event.category,
                        start=event.start,
                        end=event.end,
                    )
                )
                steps.append(
                    CriticalStep(
                        event_index=None,
                        rank=event.rank,
                        stream=event.stream,
                        category=IDLE_CATEGORY,
                        start=pred_end,
                        end=event.start,
                    )
                )
            else:
                steps.append(
                    CriticalStep(
                        event_index=current,
                        rank=event.rank,
                        stream=event.stream,
                        category=event.category,
                        start=pred_end,
                        end=event.end,
                    )
                )
            current = pred
        steps.reverse()
        return CriticalPathResult(makespan=self.makespan, steps=tuple(steps))

    # -------------------------------------------------------------- what-ifs

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
        order = sorted(
            self._nodes,
            key=lambda i: (self._nodes[i].event.start, self._nodes[i].event.end, i),
        )
        processed: set[int] = set()
        group_start: dict[int, float] = {}
        makespan = 0.0
        for index in order:
            node = self._nodes[index]
            event = node.event
            start = 0.0
            deps: list[int] = list(node.explicit)
            if node.lane_pred is not None:
                deps.append(node.lane_pred)
            lane_end = (
                self._nodes[node.lane_pred].event.end
                if node.lane_pred is not None
                else 0.0
            )
            explained = max(
                [lane_end]
                + [self._nodes[i].event.end for i in node.explicit],
                default=0.0,
            )
            if node.group is not None:
                gid = node.group
                if gid not in group_start:
                    # A collective barriers every clock: the group starts
                    # once every earlier-recorded event has finished.
                    first = min(self._groups[gid])
                    group_start[gid] = max(
                        (
                            self._nodes[i].new_end
                            for i in processed
                            if i < first
                        ),
                        default=0.0,
                    )
                start = group_start[gid]
                explained = event.start  # the barrier fully explains it
            elif event.start - self._eps > lane_end:
                joins = [
                    i
                    for i in self._ending_at(event.start)
                    if i != index and i < index
                ]
                deps.extend(joins)
                if joins:
                    explained = max(
                        explained, max(self._nodes[i].event.end for i in joins)
                    )
            for i in deps:
                if i in processed:  # guaranteed by the processing order
                    start = max(start, self._nodes[i].new_end)
            if event.start - self._eps > explained:
                # Exogenous delay (e.g. a request arrival): keep it.
                start = max(start, event.start)
            factor = float(scale(event))
            if not math.isfinite(factor) or factor < 0.0:
                raise ValueError(f"scale must be finite and >= 0, got {factor!r}")
            node.new_end = start + event.duration * factor
            processed.add(index)
            makespan = max(makespan, node.new_end)
        return makespan

    def speedup_if(self, category: str, factor: float) -> SpeedupEstimate:
        """Predicted makespan if every ``category`` event ran ``factor``
        times faster (``factor < 1`` models a slowdown)."""
        factor = float(factor)
        if not math.isfinite(factor) or factor <= 0.0:
            raise ValueError(f"factor must be finite and > 0, got {factor!r}")
        predicted = self.reschedule(
            lambda event: 1.0 / factor if str(event.category) == str(category) else 1.0
        )
        return SpeedupEstimate(
            category=str(category),
            factor=factor,
            baseline_makespan=self.makespan,
            predicted_makespan=predicted,
        )


def extract_critical_path(timeline: Timeline) -> CriticalPathResult:
    """Reconstruct the DAG and extract the critical path in one call."""
    return TimelineDag.from_timeline(timeline).critical_path()
