"""The cluster simulator: per-rank stream clocks + cost models + timeline.

:class:`ClusterSimulator` owns everything one simulated training job
needs: ``n_ranks`` device clocks, the A100 ``GpuModel`` that prices
compute, the :class:`NetworkModel` that prices collectives, the
:class:`Communicator` that moves real data, and the :class:`Timeline`
ledger every charge lands in.

Each rank carries *named streams* — by default ``compute`` (device
kernels) and ``comm`` (wire occupancy) — so stage-① (de)compression can
overlap stage-③ transmission, pricing the paper's future-work NCCL
integration end to end.  A rank's clock is the max over its streams.

Charging primitives:

* :meth:`compute` — one wave of rank-local work on one named stream
  (``compute`` by default): rank ``r``'s event starts at that lane's
  clock and lasts ``seconds[r]``; a rank given 0 records nothing.
* :meth:`sync` — join all of one rank's streams (a device-wide event
  barrier), like ``cudaStreamSynchronize`` on every stream.
* :meth:`collective` — synchronizing work: all ranks (all streams) first
  meet at the barrier (``max`` of clocks, modelling the straggler), then
  the charge spans the identical interval on every rank's ``comm`` stream.

Every event reaches the ledger through one scheduler and one commit:
:meth:`schedule_stage` places a stage on one stream of every rank as
waves (``compute`` is one wave; the communicator's chunk pipeline is
``K`` waves per stage) and :meth:`commit` records the stages, makes each
event its lane's tail and writes the stream clocks back.

Per-(rank, stream) events never overlap, and collectives appear on all
ranks with identical spans — the invariants the integration tests pin.
Events on *different* streams of one rank may overlap; that is the point.

**Dependencies are recorded where they are made.**  Next to each
(stream, rank) clock the simulator keeps the lane's *tails*: the ledger
indices whose ends set the clock.  Recording on a lane makes that event
its one tail; :meth:`sync` (and a new named stream) takes the union of
the rank's tails, :meth:`barrier` the union over all ranks; a
collective's events share that union as one edge tuple and become every
lane's tails.  An event records its lane's tails as ``release_edges``
unless they are the lane's own last event, so :mod:`repro.obs.critpath`
infers nothing; a start no recorded event explains (a fault delay) is an
exogenous floor there.

A :class:`~repro.faults.injector.FaultInjector` may be attached via the
``fault_injector`` attribute; when present, compute events stretch under
straggler slowdowns and comm events/collectives wait out fabric outages
and stretch under degraded links.  Unattached (the default), every charge
is exactly as priced — fault handling adds zero cost to healthy runs.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.dist.comm import Communicator
from repro.dist.gpu import A100_LIKE
from repro.dist.network import NetworkModel
from repro.dist.timeline import COMM_STREAM, COMPUTE_STREAM, Timeline
from repro.utils.validation import check_count, check_finite_nonnegative

__all__ = ["ClusterSimulator"]


class _Stage(NamedTuple):
    """One scheduled stage as :meth:`Timeline.record_batch` arguments, its
    events flattened rank-major."""

    ranks: np.ndarray
    category: str
    starts: np.ndarray
    durations: np.ndarray
    stream: str
    args: object
    release_edges: list | None


class ClusterSimulator:
    """Per-rank stream clocks over shared GPU/network cost models."""

    #: streams preallocated on every rank
    STREAMS = (COMPUTE_STREAM, COMM_STREAM)

    def __init__(
        self,
        n_ranks: int,
        network: NetworkModel | None = None,
    ):
        self.n_ranks = check_count("n_ranks", n_ranks, 1)
        self.network = network if network is not None else NetworkModel()
        if (
            self.network.topology is not None
            and self.network.topology.n_ranks != self.n_ranks
        ):
            raise ValueError(
                f"network topology spans {self.network.topology.n_ranks} ranks "
                f"but the simulator has {self.n_ranks}"
            )
        self.gpu = A100_LIKE
        #: optional FaultInjector bending this simulator's charges
        self.fault_injector = None
        self.comm = Communicator(self)
        self.reset()

    # -------------------------------------------------------------- clocks

    @property
    def clocks(self) -> tuple[float, ...]:
        """Current per-rank clock readings (max over each rank's streams)."""
        return tuple(
            max(clocks[rank] for clocks in self._streams.values())
            for rank in range(self.n_ranks)
        )

    def now(self, rank: int) -> float:
        self._check_rank(rank)
        return max(clocks[rank] for clocks in self._streams.values())

    def makespan(self) -> float:
        """Latest clock across the cluster — total simulated wall time."""
        return max(self.clocks)

    def reset(self) -> None:
        """Zero all clocks and start a fresh timeline (and with it a fresh
        exchange numbering) — the ledger that follows equals a newly
        constructed simulator's."""
        self._streams = {stream: [0.0] * self.n_ranks for stream in self.STREAMS}
        #: per stream, per rank: the ledger indices whose ends set the clock
        self._tails = {stream: [()] * self.n_ranks for stream in self.STREAMS}
        self.timeline = Timeline()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank must be in [0, {self.n_ranks}), got {rank!r}")

    def _stream_clocks(self, stream: str) -> list[float]:
        clocks = self._streams.get(stream)
        if clocks is None:  # new named streams start joined to the rank clock
            clocks = list(self.clocks)
            self._tails[stream] = [self._rank_tails(rank) for rank in range(self.n_ranks)]
            self._streams[stream] = clocks
        return clocks

    def _rank_tails(self, *ranks: int) -> tuple[int, ...]:
        """Sorted union of the given ranks' lane tails (what their clocks
        wait on); copies of one tuple give that very tuple, so
        ``record_batch`` keeps sharing it."""
        distinct = {id(t): t for tails in self._tails.values() for r in ranks if (t := tails[r])}
        if len(distinct) == 1:
            return next(iter(distinct.values()))
        return tuple(sorted(set(chain.from_iterable(distinct.values()))))

    def _lane_edges(self, rank: int, stream: str, tails: tuple[int, ...]) -> tuple[int, ...]:
        """``tails`` as the next event's release edges on one lane; none if
        they are just the lane's own last event (the lane predecessor)."""
        if len(tails) == 1 and self.timeline.lane(tails[0]) == (rank, stream):
            return ()
        return tails

    # ------------------------------------------------------------ charging

    def compute(
        self,
        seconds: Sequence[float],
        category: str,
        stream: str = COMPUTE_STREAM,
    ) -> None:
        """Charge one wave of rank-local work to one named stream:
        ``seconds[r]`` on rank ``r``, starting at that lane's clock.

        Only that stream's clocks advance, so events on the ranks' other
        streams may run concurrently.  A rank given 0 records nothing.
        Each lane's tails, unless they are just its own last event,
        become its event's release edges.  Every entry is checked before
        anything is recorded: a bad one leaves ledger and clocks as they
        were.
        """
        durations = np.array(seconds, dtype=np.float64)
        if durations.shape != (self.n_ranks,):
            raise ValueError(
                f"seconds must have one entry per rank ({self.n_ranks}), "
                f"got shape {durations.shape}"
            )
        check_finite_nonnegative("seconds", durations)
        active = durations > 0.0
        if not active.any():
            return
        clocks = self._stream_clocks(stream)
        tails = self._tails[stream]
        edges = [self._lane_edges(r, stream, tails[r]) for r in np.flatnonzero(active).tolist()]
        stages: list[_Stage] = []
        _, clock = self.schedule_stage(
            stages, category, stream, np.array(clocks), None,
            durations[:, None], active[:, None], None, edges,
        )
        self.commit(stages, {stream: clock})

    def schedule_stage(
        self,
        stages: list[_Stage],
        category: str,
        stream: str,
        clock: np.ndarray,
        not_before: np.ndarray | None,
        seconds: np.ndarray,
        active: np.ndarray,
        args: object,
        release_edges: list | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Schedule one stage on one stream of every rank as ``K`` *waves*
        and append it to ``stages``; nothing is recorded until
        :meth:`commit`.  Wave ``j`` starts chunk ``j`` of every rank where
        ``active[:, j]`` at ``max(clock, not_before[:, j])`` for
        ``seconds[:, j]``: a rank's chunk ``j`` depends on its own chunk
        ``j - 1`` (the stream clock) and on earlier stages only, never on
        another rank's chunk of this stage, so each wave is one vector
        ``max`` then ``+``.  An attached ``FaultInjector`` bends every
        active event through ``adjust_stream_event``, in rank order.  The
        stage's events are the active ``(rank, chunk)`` entries flattened
        rank-major; ``args`` / ``release_edges`` are given in that order.

        Returns ``(ends, clock)``: ``ends[:, j]`` is the stream clock
        after wave ``j`` (so an inactive chunk reports the time its rank
        was already at), ``clock`` the final one.
        """
        injector = self.fault_injector
        starts = np.zeros(seconds.shape)
        durations = seconds.copy()
        ends = np.empty(seconds.shape)
        for j in range(seconds.shape[1]):
            on = active[:, j]
            start = clock if not_before is None else np.maximum(clock, not_before[:, j])
            if injector is not None:
                start = start.copy()
                for rank in np.flatnonzero(on).tolist():
                    start[rank], durations[rank, j] = injector.adjust_stream_event(
                        rank, stream, float(start[rank]), float(durations[rank, j])
                    )
            clock = np.where(on, start + durations[:, j], clock)
            starts[:, j] = start
            ends[:, j] = clock
        stages.append(
            _Stage(
                np.nonzero(active)[0],
                category,
                starts[active],
                durations[active],
                stream,
                args,
                release_edges,
            )
        )
        return ends, clock

    def commit(self, stages: list[_Stage], clocks: Mapping[str, np.ndarray]) -> None:
        """Record scheduled stages, one ``record_batch`` each, and write
        ``clocks`` (per stream, one reading per rank) back.  Each event
        becomes its lane's tail: a stage is rank-major, so each rank's
        last event on the stream is the one that stays."""
        timeline = self.timeline
        for stage in stages:
            first = len(timeline)
            timeline.record_batch(*stage)
            tails = self._tails[stage.stream]
            for rank, index in zip(stage.ranks.tolist(), range(first, len(timeline))):
                tails[rank] = (index,)
        for stream, clock in clocks.items():
            self._streams[stream][:] = clock.tolist()

    def sync(self, rank: int) -> float:
        """Join all streams of one rank (device-wide event barrier); no
        event is logged.  Returns the joined clock."""
        self._check_rank(rank)
        joined = self.now(rank)
        union = self._rank_tails(rank)
        for clocks, tails in zip(self._streams.values(), self._tails.values()):
            clocks[rank] = joined
            tails[rank] = union
        return joined

    def collective(self, seconds: float, category: str) -> float:
        """Barrier-synchronize all ranks (all streams), then charge
        ``seconds`` to each rank's comm stream over the identical interval;
        returns the common end time.  No rank leaves before all do: the
        collective's events become every lane's tails."""
        check_finite_nonnegative("seconds", seconds)
        seconds = float(seconds)
        start = self.barrier()
        released = self._tails[COMPUTE_STREAM][0]  # every lane holds the union now
        if self.fault_injector is not None:
            start, seconds = self.fault_injector.adjust_collective(start, seconds)
        n = self.n_ranks
        first = len(self.timeline)
        end = start + seconds
        stage = _Stage(
            np.arange(n), category, np.full(n, start), np.full(n, seconds),
            COMM_STREAM, None, [released] * n,
        )
        self.commit([stage], dict.fromkeys(self._streams, np.full(n, end)))
        done = tuple(range(first, first + n))
        for tails in self._tails.values():
            tails[:] = [done] * n
        return end

    def barrier(self) -> float:
        """Synchronize all clocks without charging time (no event logged);
        every lane's tails become the union over all ranks."""
        end = self.makespan()
        union = self._rank_tails(*range(self.n_ranks))
        for clocks, tails in zip(self._streams.values(), self._tails.values()):
            clocks[:] = [end] * self.n_ranks
            tails[:] = [union] * self.n_ranks
        return end

    def __repr__(self) -> str:
        return (
            f"ClusterSimulator(n_ranks={self.n_ranks}, makespan={self.makespan():.6f}s, "
            f"events={len(self.timeline)})"
        )
