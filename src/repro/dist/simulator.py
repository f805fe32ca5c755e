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

* :meth:`compute` — rank-local work on the ``compute`` stream: advances
  that stream's clock and logs an event starting at its current time.
* :meth:`stream_compute` — the same on an arbitrary named stream.
* :meth:`sync` — join all of one rank's streams (a device-wide event
  barrier), like ``cudaStreamSynchronize`` on every stream.
* :meth:`collective` — synchronizing work: all ranks (all streams) first
  meet at the barrier (``max`` of clocks, modelling the straggler), then
  the charge spans the identical interval on every rank's ``comm`` stream.

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

import math
from itertools import chain

from repro.dist.comm import Communicator
from repro.dist.gpu import A100_LIKE
from repro.dist.network import NetworkModel
from repro.dist.timeline import COMM_STREAM, COMPUTE_STREAM, Timeline

__all__ = ["ClusterSimulator"]


class ClusterSimulator:
    """Per-rank stream clocks over shared GPU/network cost models."""

    #: streams preallocated on every rank
    STREAMS = (COMPUTE_STREAM, COMM_STREAM)

    def __init__(
        self,
        n_ranks: int,
        network: NetworkModel | None = None,
    ):
        if int(n_ranks) < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks!r}")
        self.n_ranks = int(n_ranks)
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
        """Zero all clocks, start a fresh timeline and restart the
        communicator's exchange numbering — the ledger that follows equals
        a newly constructed simulator's."""
        self._streams = {stream: [0.0] * self.n_ranks for stream in self.STREAMS}
        #: per stream, per rank: the ledger indices whose ends set the clock
        self._tails = {stream: [()] * self.n_ranks for stream in self.STREAMS}
        self.timeline = Timeline()
        self.comm._exchange_counter = 0

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

    @staticmethod
    def _check_seconds(seconds: float) -> float:
        seconds = float(seconds)
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(f"seconds must be finite and >= 0, got {seconds!r}")
        return seconds

    # ------------------------------------------------------------ charging

    def compute(self, rank: int, seconds: float, category: str) -> float:
        """Charge rank-local work on the ``compute`` stream; returns the
        event's end time."""
        return self.stream_compute(rank, seconds, category, stream=COMPUTE_STREAM)

    def stream_compute(
        self,
        rank: int,
        seconds: float,
        category: str,
        stream: str = COMPUTE_STREAM,
    ) -> float:
        """Charge work to one named stream of one rank.

        The event starts at the stream's clock; only that stream's clock
        advances, so events on the rank's other streams may run
        concurrently.  The lane's tails, unless they are just its own last
        event, become the event's release edges.
        Returns the event's end time.
        """
        self._check_rank(rank)
        seconds = self._check_seconds(seconds)
        clocks = self._stream_clocks(stream)
        tails = self._tails[stream]
        edges = self._lane_edges(rank, stream, tails[rank])
        start = clocks[rank]
        if self.fault_injector is not None:
            start, seconds = self.fault_injector.adjust_stream_event(
                rank, stream, start, seconds
            )
        self.timeline.record(
            rank,
            category,
            start,
            seconds,
            stream=stream,
            release_edges=edges,
        )
        tails[rank] = (len(self.timeline) - 1,)
        clocks[rank] = start + seconds
        return clocks[rank]

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
        seconds = self._check_seconds(seconds)
        start = self.barrier()
        released = self._tails[COMPUTE_STREAM][0]  # every lane holds the union now
        if self.fault_injector is not None:
            start, seconds = self.fault_injector.adjust_collective(start, seconds)
        n = self.n_ranks
        first = len(self.timeline)
        self.timeline.record_batch(
            range(n),
            category,
            [start] * n,
            [seconds] * n,
            COMM_STREAM,
            release_edges=[released] * n,
        )
        end = start + seconds
        done = tuple(range(first, first + n))
        for clocks, tails in zip(self._streams.values(), self._tails.values()):
            clocks[:] = [end] * n
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
