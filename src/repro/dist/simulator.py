"""The cluster simulator: per-rank stream clocks + cost models + timeline.

:class:`ClusterSimulator` owns everything one simulated training job
needs: ``n_ranks`` device clocks, the :class:`GpuModel` that prices
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
* :meth:`stream_compute` — the same on an arbitrary named stream, with an
  optional ``not_before`` release time (an event may not start before its
  inputs exist — e.g. decompression before the first chunk arrives).
* :meth:`sync` — join all of one rank's streams (a device-wide event
  barrier), like ``cudaStreamSynchronize`` on every stream.
* :meth:`collective` — synchronizing work: all ranks (all streams) first
  meet at the barrier (``max`` of clocks, modelling the straggler), then
  the charge spans the identical interval on every rank's ``comm`` stream.

Per-(rank, stream) events never overlap, and collectives appear on all
ranks with identical spans — the invariants the integration tests pin.
Events on *different* streams of one rank may overlap; that is the point.

A :class:`~repro.faults.injector.FaultInjector` may be attached via the
``fault_injector`` attribute; when present, compute events stretch under
straggler slowdowns and comm events/collectives wait out fabric outages
and stretch under degraded links.  Unattached (the default), every charge
is exactly as priced — fault handling adds zero cost to healthy runs.
"""

from __future__ import annotations

import math

from repro.dist.comm import Communicator
from repro.dist.gpu import A100_LIKE, GpuModel
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
        gpu: GpuModel | None = None,
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
        self.gpu = gpu if gpu is not None else A100_LIKE
        #: optional FaultInjector bending this simulator's charges
        self.fault_injector = None
        self.timeline = Timeline()
        self._streams: dict[str, list[float]] = {
            stream: [0.0] * self.n_ranks for stream in self.STREAMS
        }
        self.comm = Communicator(self)

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

    def stream_now(self, rank: int, stream: str) -> float:
        """Current clock of one named stream on one rank."""
        self._check_rank(rank)
        return self._stream_clocks(stream)[rank]

    def makespan(self) -> float:
        """Latest clock across the cluster — total simulated wall time."""
        return max(self.clocks)

    def reset(self) -> None:
        """Zero all clocks, start a fresh timeline and restart the
        communicator's exchange numbering — the ledger that follows equals
        a newly constructed simulator's."""
        self._streams = {stream: [0.0] * self.n_ranks for stream in self.STREAMS}
        self.timeline = Timeline()
        self.comm._exchange_counter = 0

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank must be in [0, {self.n_ranks}), got {rank!r}")

    def _stream_clocks(self, stream: str) -> list[float]:
        clocks = self._streams.get(stream)
        if clocks is None:  # new named streams start joined to the rank clock
            clocks = list(self.clocks)
            self._streams[stream] = clocks
        return clocks

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
        *,
        not_before: float | None = None,
        args: dict | None = None,
        release_edges: list[int] | None = None,
    ) -> float:
        """Charge work to one named stream of one rank.

        The event starts at the stream's clock, delayed to ``not_before``
        if given (the release time of the event's inputs); only that
        stream's clock advances, so events on the rank's other streams may
        run concurrently.  ``args`` attaches structured labels to the
        logged event (e.g. chunk indices of a pipelined exchange);
        ``release_edges`` names the already-logged events whose completion
        released this one (the provenance behind ``not_before``), carried
        into the timeline for exact dependency-DAG reconstruction.
        Returns the event's end time.
        """
        self._check_rank(rank)
        seconds = self._check_seconds(seconds)
        clocks = self._stream_clocks(stream)
        start = clocks[rank]
        if not_before is not None:
            start = max(start, self._check_seconds(not_before))
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
            args=args,
            release_edges=release_edges,
        )
        clocks[rank] = start + seconds
        return clocks[rank]

    def sync(self, rank: int) -> float:
        """Join all streams of one rank (device-wide event barrier); no
        event is logged.  Returns the joined clock."""
        self._check_rank(rank)
        joined = self.now(rank)
        for clocks in self._streams.values():
            clocks[rank] = joined
        return joined

    def collective(self, seconds: float, category: str, stream: str = COMM_STREAM) -> float:
        """Barrier-synchronize all ranks (all streams), then charge
        ``seconds`` to each rank's ``stream`` over the identical interval;
        returns the common end time."""
        seconds = self._check_seconds(seconds)
        start = self.barrier()
        if self.fault_injector is not None:
            start, seconds = self.fault_injector.adjust_collective(start, seconds)
        n = self.n_ranks
        self.timeline.record_batch(range(n), category, [start] * n, [seconds] * n, stream)
        end = start + seconds
        for clocks in self._streams.values():
            clocks[:] = [end] * self.n_ranks
        return end

    def barrier(self) -> float:
        """Synchronize all clocks without charging time (no event logged)."""
        end = self.makespan()
        for clocks in self._streams.values():
            clocks[:] = [end] * self.n_ranks
        return end

    def __repr__(self) -> str:
        return (
            f"ClusterSimulator(n_ranks={self.n_ranks}, makespan={self.makespan():.6f}s, "
            f"events={len(self.timeline)})"
        )
