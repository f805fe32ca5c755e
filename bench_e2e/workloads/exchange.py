"""``exchange_engine``: ``repro.dist`` driven directly — no model, no codec.

The only workload where Communicator + simulator + timeline + critical-path
bookkeeping are ~100% of the wall time (inside a train step they are a few
percent and invisible).  ROADMAP direction 4 rewrites this engine "with no
wall regression"; this is the row that holds it to that, and codec or
numerics changes must not move it.

World: a 16 x 8 = 128-rank ``Topology.hierarchical(NVLINK_LIKE,
IB_HDR_LIKE.oversubscribed(4))`` and pre-generated ``bytes`` payloads
(4 per ordered pair, seeded sizes 64-2048 B, seeded per-rank codec times).

A segment drives a fresh ``ClusterSimulator`` through ``ROUNDS`` rounds of
a chunk-pipelined ``compressed_all_to_all`` plus a hierarchical 1 MiB
``all_reduce_bytes`` (the primary operation, reported as timeline events
recorded per wall second), then runs ``extract_critical_path`` over that
segment's timeline (the secondary operation, events analysed per wall
second), each timed on its own.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.dist import IB_HDR_LIKE, NVLINK_LIKE, ClusterSimulator, NetworkModel, Topology
from repro.obs import critpath
from repro.profiling import overlap_efficiency

from bench_e2e.harness import Part, RunContext
from bench_e2e.trace import Totals
from bench_e2e.workloads.common import COLLECTIVES

__all__ = ["ExchangeEngine"]

N_NODES, GPUS_PER_NODE = 16, 8
N_RANKS = N_NODES * GPUS_PER_NODE
PAYLOADS_PER_PAIR = 4
ROUNDS = 4
ALLREDUCE_BYTES = 1 << 20


class ExchangeEngine:
    name = "exchange_engine"

    # ---------------------------------------------------------------- set-up

    def build(self, ctx: RunContext) -> None:
        self.min_segments = 2 if ctx.smoke else 16
        topology = Topology.hierarchical(
            N_NODES, GPUS_PER_NODE, NVLINK_LIKE, IB_HDR_LIKE.oversubscribed(4)
        )
        self.network = NetworkModel.from_topology(topology)
        rng = np.random.default_rng(ctx.seed)
        sizes = rng.integers(64, 2049, size=(N_RANKS, N_RANKS, PAYLOADS_PER_PAIR))
        blob = bytes(2048)
        self.sendbufs = [
            [[blob[: int(size)] for size in sizes[src, dst]] for dst in range(N_RANKS)]
            for src in range(N_RANKS)
        ]
        self.payload_bytes_per_round = int(sizes.sum())
        self.compress_seconds = rng.uniform(20e-6, 200e-6, size=N_RANKS).tolist()
        self.decompress_seconds = rng.uniform(20e-6, 200e-6, size=N_RANKS).tolist()
        self.sim = self._exchange(ClusterSimulator(N_RANKS, network=self.network))
        critpath.extract_critical_path(self.sim.timeline)

    def _exchange(self, sim: ClusterSimulator, overlap: bool = True) -> ClusterSimulator:
        for _ in range(ROUNDS):
            sim.comm.compressed_all_to_all(
                self.sendbufs,
                entries_per_pair=PAYLOADS_PER_PAIR,
                overlap=overlap,
                chunks_per_rank=8,
                compress_seconds=self.compress_seconds,
                decompress_seconds=self.decompress_seconds,
            )
            sim.comm.all_reduce_bytes(ALLREDUCE_BYTES, algorithm="hierarchical")
        return sim

    # --------------------------------------------------------------- measure

    def measure(self, ctx: RunContext) -> None:
        self.makespan = self.sim.makespan()
        self.events = len(self.sim.timeline.events)

        def fresh() -> None:
            self.sim = ClusterSimulator(N_RANKS, network=self.network)

        def exchange() -> None:
            self._exchange(self.sim)

        # Called through the module so the tracer's rebinding is seen here too.
        def analyse() -> None:
            self.critical_path = critpath.extract_critical_path(self.sim.timeline)

        def check_segment() -> None:
            # Same inputs, fresh simulator: the simulated clock must repeat.
            same = (
                self.sim.makespan() == self.makespan
                and len(self.sim.timeline.events) == self.events
            )
            ctx.account(
                ROUNDS, 0 if same else ROUNDS, "a fresh simulator's makespan or event count drifted"
            )
            ctx.count(
                self.critical_path.makespan == self.makespan,
                "the critical path's makespan differs from the simulator's",
            )

        ctx.run_segments(
            [Part("exchange", exchange, self.events), Part("critpath", analyse, self.events)],
            min_segments=self.min_segments,
            seconds=ctx.seconds,
            before=fresh,
            after=check_segment,
        )

    def end_to_end(self, ctx: RunContext) -> dict[str, float]:
        return {
            "primary_ops_per_s": ctx.phases["exchange"].ops_per_second,
            "secondary_ops_per_s": ctx.phases["critpath"].ops_per_second,
        }

    # ---------------------------------------------------------------- verify

    def verify(self, ctx: RunContext) -> None:
        attributed = sum(self.critical_path.attribution_exact().values())
        ctx.count(
            attributed == Fraction(self.makespan),
            "critical-path attribution does not sum exactly to the makespan",
        )
        sequential = self._exchange(ClusterSimulator(N_RANKS, network=self.network), overlap=False)
        ctx.count(
            self.makespan <= sequential.makespan(),
            f"overlapped makespan {self.makespan!r} exceeds the sequential {sequential.makespan()!r}",
        )

    # ------------------------------------------------------------- per layer

    def per_layer(self, ctx: RunContext, totals: Totals) -> dict[str, float]:
        rounds = ROUNDS * len(ctx.phases["exchange"].traced_walls)
        events_per_round = self.events / ROUNDS
        dist_self = totals.self_seconds("exchange", ["dist"])
        analysed = self.events * len(ctx.phases["critpath"].traced_walls)
        return {
            "dist.comm_self_ms_per_step": 1e3 * dist_self / rounds,
            "dist.events_per_step": events_per_round,
            "dist.collective_calls_per_step": totals.calls("exchange", COLLECTIVES) / rounds,
            "dist.wire_bytes_per_step": self.payload_bytes_per_round + ALLREDUCE_BYTES,
            "dist.us_per_event": 1e6 * dist_self / (rounds * events_per_round),
            "dist.sim_iteration_ms": 1e3 * self.makespan / ROUNDS,
            "dist.sim_hidden_wire_share": overlap_efficiency(self.sim.timeline),
            "obs.critpath_us_per_event": 1e6 * totals.self_seconds("critpath", ["obs"]) / analysed,
        }
