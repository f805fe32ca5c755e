"""``publish_serve``: delta publication beside compressed serving.

Uses the codec layer the *other* way round from training: every publish
round writes (delta encode + CRC envelope + shard re-encode of every
block) and every request reads (block ``decompress_any`` + header parse on
each cache miss).  A decode gain bought with encode time, or a framing
change that helps pulls but bloats publication bytes, shows here; model
numerics barely matter.

World: the Criteo-Kaggle-shaped tables at dim 32, a 4-rank compressed
trainer, ``build_serving_tier(n_shard_ranks=4, n_replicas=4,
cache_rows=256, checksum=True)``.

Primary operation: ``ServingSimulator.run`` over 250 Zipf requests of an
open-loop 2000 qps trace (a segment; replica caches persist between
segments), reported as requests per wall second.  Secondary operation:
one ``DeltaPublisher.publish`` after an untimed ``train_step(512)``,
reported as rounds per wall second.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import AdaptiveController
from repro.dist import ClusterSimulator
from repro.model import DLRM
from repro.serve import RequestLoadGenerator, ServingSimulator, build_serving_tier
from repro.train import CompressionPipeline, HybridParallelTrainer

from bench_e2e.harness import Part, RunContext
from bench_e2e.trace import Totals
from bench_e2e.workloads.common import (
    DECODE_KERNELS,
    ENCODE_KERNELS,
    PARSE_FRAMING,
    build_world,
    is_name,
)

__all__ = ["PublishServe"]

TRAINER_RANKS = 4
TRAIN_BATCH = 512
REQUESTS_PER_SEGMENT = 250
OFFERED_QPS = 2000.0
#: gathers re-checked against the published tables (x 26 tables >= 100 rows)
SAMPLED_GATHERS = 4


class PublishServe:
    name = "publish_serve"

    # ---------------------------------------------------------------- set-up

    def build(self, ctx: RunContext) -> None:
        self.min_rounds, self.min_runs = (2, 2) if ctx.smoke else (16, 16)
        self.dataset, self.config, plan = build_world(ctx.seed, 32)
        pipeline = CompressionPipeline(AdaptiveController(plan))
        self.trainer = HybridParallelTrainer(
            DLRM(self.config),
            self.dataset,
            ClusterSimulator(TRAINER_RANKS),
            pipeline=pipeline,
            lr=0.2,
        )
        self.tier = build_serving_tier(
            self.trainer, n_shard_ranks=4, n_replicas=4, cache_rows=256, checksum=True
        )
        self.loadgen = RequestLoadGenerator(self.dataset, qps=OFFERED_QPS, seed=ctx.seed + 2)
        self.serving = ServingSimulator(self.tier.replicas, self.config)
        self.reports = []
        self.serve_reports = []
        self._iteration = 0
        self._train()
        self.tier.publisher.publish(iteration=self._iteration)
        self.serving.run(self.loadgen.generate(REQUESTS_PER_SEGMENT))

    def _train(self) -> None:
        """The untimed training step a publication ships the result of."""
        self._iteration += 1
        self.trainer.train_step(TRAIN_BATCH, self._iteration)

    # --------------------------------------------------------------- measure

    def measure(self, ctx: RunContext) -> None:
        publisher = self.tier.publisher

        def publish() -> None:
            self.reports.append(publisher.publish(iteration=self._iteration))

        def check_round() -> None:
            report = self.reports[-1]
            ctx.count(report.succeeded, f"publish round {len(self.reports)} did not succeed")
            stale, bound = publisher.staleness(), report.staleness_bound
            ctx.count(stale <= bound, f"staleness {stale:.3e} > bound {bound:.3e} after a publish")

        ctx.run_segments(
            [Part("publish", publish, 1)],
            min_segments=self.min_rounds,
            seconds=0.3 * ctx.seconds,
            before=self._train,
            after=check_round,
        )

        def generate() -> None:
            self._requests = self.loadgen.generate(REQUESTS_PER_SEGMENT)

        def serve() -> None:
            self.serve_reports.append(self.serving.run(self._requests))

        def check_run() -> None:
            report = self.serve_reports[-1]
            bad = REQUESTS_PER_SEGMENT - report.n_requests + report.impaired_requests
            ctx.account(REQUESTS_PER_SEGMENT, bad, f"{bad} requests of a run not completed fresh")

        # Serving follows publication (not interleaved with it): a publish
        # invalidates the replica caches, which would change what a run reads.
        ctx.run_segments(
            [Part("serve", serve, REQUESTS_PER_SEGMENT)],
            min_segments=self.min_runs,
            seconds=0.7 * ctx.seconds,
            before=generate,
            after=check_run,
        )

    def end_to_end(self, ctx: RunContext) -> dict[str, float]:
        return {
            "primary_ops_per_s": ctx.phases["serve"].ops_per_second,
            "secondary_ops_per_s": ctx.phases["publish"].ops_per_second,
        }

    # ---------------------------------------------------------------- verify

    def verify(self, ctx: RunContext) -> None:
        """Sampled gathers must return the published rows to within each
        table's shard-storage bound."""
        publisher = self.tier.publisher
        replica = self.tier.replicas[0]
        for request in self.loadgen.generate(SAMPLED_GATHERS):
            rows = replica.gather(request.sparse).rows
            for table, row_id in enumerate(request.sparse):
                server = self.tier.servers[self.tier.sharding.owner_of(table)]
                published = publisher.published_table(table)[int(row_id)]
                bound = server.error_bound(table)
                tolerance = bound * (1 + 1e-5) + np.spacing(np.abs(rows[table]).max())
                error = float(np.abs(rows[table].astype(np.float64) - published).max())
                ctx.count(
                    error <= tolerance,
                    f"table {table} row {int(row_id)}: served row is {error:.3e} from the "
                    f"published one (shard bound {bound:.3e})",
                )

    # ------------------------------------------------------------- per layer

    def per_layer(self, ctx: RunContext, totals: Totals) -> dict[str, float]:
        rounds = len(ctx.phases["publish"].traced_walls)
        requests = REQUESTS_PER_SEGMENT * len(ctx.phases["serve"].traced_walls)
        pulls = totals.calls("serve", is_name("EmbeddingShardServer.pull"))
        fixed_rounds = self.reports[: self.min_rounds]
        fixed_runs = self.serve_reports[: self.min_runs]
        served = sum(r.n_requests for r in fixed_runs)
        hits = sum(r.hits for r in fixed_runs)
        misses = sum(r.misses for r in fixed_runs)

        def publish_ms(seconds: float) -> float:
            return 1e3 * seconds / rounds

        def serve_us(seconds: float, per: int) -> float:
            return 1e6 * seconds / per

        return {
            "serve.publisher.publish_self_ms_per_round": publish_ms(
                totals.self_seconds("publish", ["serve.publisher"])
            ),
            "serve.shard_server.set_table_ms_per_round": publish_ms(
                totals.inclusive_seconds("publish", is_name("EmbeddingShardServer.set_table"))
            ),
            "compression.kernels.encode_self_ms_per_round": publish_ms(
                totals.name_self_seconds("publish", ENCODE_KERNELS)
            ),
            "compression.framing.crc_self_ms_per_round": publish_ms(
                totals.name_self_seconds(
                    "publish", is_name(".frame_with_checksum", ".verify_checksum_frame")
                )
            ),
            "serve.publisher.wire_bytes_per_round": sum(r.wire_nbytes for r in fixed_rounds)
            / len(fixed_rounds),
            "serve.shard_server.pull_self_us_per_pull": serve_us(
                totals.self_seconds("serve", ["serve.shard_server"]), pulls
            ),
            "serve.shard_server.pulls_per_request": pulls / requests,
            "serve.shard_server.blocks_decoded_per_request": sum(r.blocks_pulled for r in fixed_runs)
            / served,
            "serve.replica.gather_self_us_per_request": serve_us(
                totals.self_seconds("serve", ["serve.replica"]), requests
            ),
            "serve.replica.cache_hit_rate": hits / (hits + misses),
            "serve.simulator.run_self_us_per_request": serve_us(
                totals.self_seconds("serve", ["serve.simulator"]), requests
            ),
            "serve.simulator.sim_p99_ms": 1e3 * fixed_runs[-1].p99_latency,
            "compression.kernels.decode_self_us_per_pull": serve_us(
                totals.name_self_seconds("serve", DECODE_KERNELS), pulls
            ),
            "compression.framing.parse_self_us_per_pull": serve_us(
                totals.name_self_seconds("serve", PARSE_FRAMING), pulls
            ),
            "compression.framing.parse_calls_per_payload": totals.calls(
                "serve", is_name(".parse_payload")
            )
            / totals.calls("serve", is_name(".decompress_any")),
            "compression.framing.share_of_serve": totals.self_seconds(
                "serve", ["compression.framing"]
            )
            / totals.root_seconds["serve"],
        }
