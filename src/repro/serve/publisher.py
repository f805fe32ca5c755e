"""Compressed delta publication: trainer snapshots -> serving shards.

DLRM embeddings only earn their keep on the read side, so the trained
tables have to reach the inference tier *continuously* — and a terabyte
model cannot be re-shipped per step.  :class:`DeltaPublisher` closes the
loop the paper's compressor opens: it tracks what the serving tier
currently holds, and each :meth:`~DeltaPublisher.publish` ships only the
per-table **delta** since the last publication, compressed with the
adaptive controller's per-table codec and error bound and priced through
the same :class:`~repro.dist.comm.Communicator` 4-stage exchange the
trainer uses (the publisher is rank 0; each shard node is a rank, so
stage-② metadata, the variable-size payload all-to-all, and stage-①/④
kernels are all charged on the publication fabric).

**Staleness is bounded, not accumulated.**  The delta is computed against
the *published* state (error feedback): whatever error the lossy delta
introduced last round is folded into the next round's delta, so after
every publication the serving tier's logical table state is within the
per-table error bound of the trainer's — for any number of rounds.  Shard
servers recompress from that exact logical state (never decode-add-encode
on their own lossy storage), so the end-to-end staleness of a served row
is at most ``publication bound + shard-storage bound``.

**Only what crossed its bound ships.**  A table whose delta already meets
the contract — ``max|current - published| <= bound``, with the
bound 0 in raw mode — is skipped: no compress, decode, CRC, payload,
``set_table`` or replica invalidation, and its published state and shard
blocks stay bit for bit as they were.  Every table moves every training
step, but few move past their bound, so most rounds ship a handful of
tables or none; a round that ships none runs no exchange at all.

Freshness-vs-bandwidth is then a measurable tradeoff: raw publication is
exact but pays full table bytes and a long fabric/apply window; compressed
publication pays a bounded accuracy budget for an order of magnitude less
wire — ``benchmarks/bench_serving_scaling.py`` prices both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.adaptive.selection import PAPER_A100_PROFILE
from repro.compression.base import Compressor, frame_payload
from repro.compression.registry import decompress_any, get_compressor
from repro.compression.serialization import CorruptPayloadError, unpack_meta
from repro.dist.network import NetworkModel
from repro.dist.simulator import ClusterSimulator
from repro.dist.timeline import OBS_STREAM, EventCategory
from repro.obs.runtime import OBS
from repro.serve.replica import InferenceReplica
from repro.serve.shard_server import DEFAULT_ROWS_PER_BLOCK, EmbeddingShardServer
from repro.train.sharding import ShardingPlan
from repro.utils.validation import check_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.train.hybrid import HybridParallelTrainer

__all__ = ["TableDelta", "PublicationReport", "DeltaPublisher", "ServingTier", "build_serving_tier"]


@dataclass(frozen=True)
class TableDelta:
    """One table's share of a publication.

    A table whose delta was already within its bound ships nothing: its
    ``wire_nbytes`` is 0 and ``max_abs_error`` is the delta it kept."""

    table_id: int
    codec: str
    error_bound: float  # 0 for raw publication
    raw_nbytes: int
    wire_nbytes: int
    max_abs_error: float  # |trainer - published| after applying, elementwise max

    @property
    def shipped(self) -> bool:
        """Whether this round put the table's delta on the wire."""
        return self.wire_nbytes > 0


@dataclass(frozen=True)
class PublicationReport:
    """Accounting for one publication round.

    ``tables`` holds every table, shipped or not, so ``raw_nbytes``,
    ``compression_ratio`` and ``staleness_bound`` cover the whole round.  A
    round that ships no table runs no exchange: ``attempts`` is 0, the
    wire, compress and apply seconds are 0, and it succeeds."""

    iteration: int
    compressed: bool
    tables: tuple[TableDelta, ...]
    wire_nbytes: int
    raw_nbytes: int
    #: stages ②-④ of the publication exchange — metadata, payloads, and
    #: shard-side decode; the window the serving tier is exposed to
    wire_seconds: float
    #: stage ① on the publisher's device — elapses while replicas keep
    #: serving, so it is *not* part of :attr:`downtime_seconds`
    compress_seconds: float
    apply_seconds: tuple[float, ...]  # per shard node
    #: retry accounting (all defaults preserve the healthy-path shape)
    attempts: int = 1
    retry_backoff_seconds: float = 0.0
    corrupted_payloads: int = 0
    #: ``False`` when every delivery attempt failed verification — nothing
    #: was applied, the serving tier kept its previous (bounded) state
    succeeded: bool = True

    @property
    def compression_ratio(self) -> float:
        return self.raw_nbytes / max(1, self.wire_nbytes)

    @property
    def staleness_bound(self) -> float:
        """Worst-case elementwise |trainer - published| this round."""
        return max((t.error_bound for t in self.tables), default=0.0)

    @property
    def max_abs_error(self) -> float:
        return max((t.max_abs_error for t in self.tables), default=0.0)

    @property
    def downtime_seconds(self) -> float:
        """Window during which the serving tier is absorbing the update:
        wire drain plus the slowest shard node's apply.  A failed round
        applies nothing — the replicas never stop serving, so its
        downtime is zero."""
        if not self.succeeded:
            return 0.0
        return self.wire_seconds + max(self.apply_seconds, default=0.0)


class DeltaPublisher:
    """Ship per-table (compressed) embedding deltas from a trainer to the
    serving tier's shard servers through the :class:`Communicator`.

    Parameters
    ----------
    trainer:
        The :class:`~repro.train.hybrid.HybridParallelTrainer` whose model
        is being served.  Construct the publisher (and the shard servers)
        from the *same* model state — the publisher snapshots the tables at
        construction as the serving tier's initial logical state.
    servers / replicas / sharding:
        The serving tier.  Each publication recompresses the shipped
        tables on their shard node and invalidates the replicas' cached
        rows for those tables only; a table whose delta is within its
        bound ships nothing, and replicas keep its cached rows.
    network:
        Publication fabric (rank 0 = publisher, rank ``1 + s`` = shard
        node ``s``).  Defaults to the paper's flat fabric.
    compress:
        ``True`` ships error-bounded deltas under the adaptive
        controller's per-table codec/bound (requires the trainer's
        pipeline); ``False`` ships raw float32 deltas (exact, heavy), each
        as a frame whose prelude names ``raw``, with an empty tail and the
        delta's bytes as its body.  Either way every payload is a frame,
        and delivery checks its CRC32 (in
        :func:`~repro.compression.serialization.unpack_meta`), so
        in-transit corruption is *detected* (→ retry) instead of applied.
    retry_policy:
        Optional :class:`~repro.faults.retry.RetryPolicy`.  When set, a
        publication round whose payloads fail verification is retried —
        full round replay, backoff charged as RETRY on the fabric clock.
        The replay is error-feedback-safe: the serving tier's logical
        state mutates only after a fully verified delivery, so the
        per-round staleness bound holds across any number of failed
        rounds (the next delta is still computed against what the shards
        actually hold).
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; attached
        to the publication fabric (outages/degraded links stretch the
        exchange) and consulted per (round, table, attempt) for payload
        corruption.
    """

    def __init__(
        self,
        trainer: "HybridParallelTrainer",
        servers: Sequence[EmbeddingShardServer],
        replicas: Sequence[InferenceReplica] = (),
        *,
        sharding: ShardingPlan | None = None,
        network: NetworkModel | None = None,
        compress: bool = True,
        retry_policy=None,
        fault_injector=None,
    ):
        if sharding is None:
            if not replicas:
                raise ValueError("pass sharding= explicitly when there are no replicas")
            sharding = replicas[0].sharding
        if sharding.n_ranks != len(servers):
            raise ValueError(
                f"sharding spans {sharding.n_ranks} shard ranks but {len(servers)} "
                "servers were given"
            )
        if compress and trainer.pipeline is None:
            raise ValueError(
                "compressed publication needs the trainer's CompressionPipeline "
                "(its controller carries the per-table error bounds); "
                "pass compress=False for raw publication"
            )
        n_tables = trainer.model.config.n_tables
        if sharding.n_tables != n_tables:
            raise ValueError(
                f"serving sharding covers {sharding.n_tables} tables, model has {n_tables}"
            )
        self.trainer = trainer
        self.servers = tuple(servers)
        self.replicas = tuple(replicas)
        self.sharding = sharding
        self.compress = bool(compress)
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self.simulator = ClusterSimulator(1 + len(servers), network=network)
        self.simulator.fault_injector = fault_injector
        # One (stateless) codec instance per name, built on first use.
        self._codecs: dict[str, Compressor] = {}
        # The per-round delta is computed into a per-table scratch array.
        self._delta_scratch: dict[int, np.ndarray] = {}
        # The serving tier's logical state: exactly what the shard servers
        # were built from, updated by decoded deltas (error feedback).
        # Explicit copies — the trainer updates weights in place, and an
        # aliased snapshot would make every delta read as zero.
        self._published = [
            trainer.model.tables[t].weight.data.copy()
            for t in range(n_tables)
        ]
        self.reports: list[PublicationReport] = []

    def published_table(self, table_id: int) -> np.ndarray:
        """The serving tier's current logical state of one table."""
        return self._published[table_id]

    def staleness(self) -> float:
        """Current worst elementwise |trainer - published| over all tables
        (bounded by the last publication's ``staleness_bound`` right after
        publishing; grows as the trainer moves on)."""
        worst = 0.0
        for t, published in enumerate(self._published):
            current = self.trainer.model.tables[t].weight.data
            worst = max(worst, float(np.max(np.abs(current - published), initial=0.0)))
        return worst

    # -------------------------------------------------------------- publish

    def publish(self, iteration: int = 0) -> PublicationReport:
        """One publication round: delta, compress, ship (with verification
        and retries when configured), apply, invalidate.

        A table ships only if some element of its delta exceeds the
        controller's bound for this round (0 in raw mode); every other
        table is recorded with ``wire_nbytes=0`` and left untouched.  A NaN
        delta always ships, so the codec rejects it.

        The serving tier's logical state (:attr:`_published`, the shard
        tables, the replica caches) mutates **only after** a delivery whose
        every payload verified — a corrupted or abandoned round leaves the
        tier exactly where it was, so the next round's delta (computed
        against the unchanged published state) still carries the full
        error-feedback correction and the per-round staleness bound never
        accumulates across failures.
        """
        pipeline = self.trainer.pipeline
        n_servers = len(self.servers)
        n = 1 + n_servers
        round_index = len(self.reports)
        entries = np.zeros((n, n), dtype=np.int64)
        stage1_chunks: list[tuple[str, int]] = []
        apply_chunks: list[list[tuple[str, int]]] = [[] for _ in range(n_servers)]
        table_records: list[TableDelta] = []
        new_state: dict[int, np.ndarray] = {}
        pristine: list[bytes] = []  # payload per shipped table
        shipped: list[int] = []  # index in table_records per shipped payload
        placements: list[int] = []  # shard rank per shipped payload
        for shard_rank in range(n_servers):
            for table_id in self.sharding.tables_of(shard_rank):
                weight = self.trainer.model.tables[table_id].weight.data
                if self.compress:
                    # Compressed mode stores only the payload and
                    # `applied`, so the skip scan allocates nothing: the
                    # subtract writes into a reused per-table scratch.
                    current = weight
                    delta = self._delta_scratch.get(table_id)
                    if delta is None or delta.shape != weight.shape:
                        delta = np.empty_like(weight)
                        self._delta_scratch[table_id] = delta
                    np.subtract(weight, self._published[table_id], out=delta)
                    codec_name = pipeline.controller.compressor_name(table_id)
                    bound = pipeline.controller.error_bound(table_id, iteration)
                else:
                    current = weight.copy()  # stored as published state below
                    delta = current - self._published[table_id]
                    codec_name = "raw"
                    bound = 0.0
                # The skip rule: a delta already within the bound leaves
                # the published state honouring the contract, so it ships
                # nothing.  A NaN compares false and ships (and raises).
                # max|delta| without an abs temporary; `+ 0.0` turns a
                # -0.0 extreme into 0.0, and a NaN propagates through both.
                error = float(max(delta.max(initial=0.0), -delta.min(initial=0.0))) + 0.0
                wire_nbytes = 0
                if not error <= bound:
                    if self.compress:
                        codec = self._codecs.get(codec_name)
                        if codec is None:
                            codec = self._codecs[codec_name] = get_compressor(codec_name)
                        payload = codec.compress(delta, bound)
                        applied = self._published[table_id] + decompress_any(payload)
                    else:
                        payload = frame_payload(codec_name, delta.shape, delta.dtype, b"", delta)
                        applied = current
                    pristine.append(payload)
                    shipped.append(len(table_records))
                    placements.append(shard_rank)
                    entries[0, 1 + shard_rank] += 1
                    stage1_chunks.append((codec_name, delta.nbytes))
                    apply_chunks[shard_rank].append((codec_name, delta.nbytes))
                    new_state[table_id] = applied
                    wire_nbytes = len(payload)
                    error = float(np.max(np.abs(current - applied), initial=0.0))
                table_records.append(
                    TableDelta(
                        table_id=table_id,
                        codec=codec_name,
                        error_bound=bound,
                        raw_nbytes=int(delta.nbytes),
                        wire_nbytes=wire_nbytes,
                        max_abs_error=error,
                    )
                )

        # Ship through the Communicator on the publication fabric.  The
        # compressed path runs the full 4-stage exchange (stage-② metadata
        # because payload sizes are variable); raw deltas are fixed-size
        # and self-describing, so they go as a plain all-to-all.  Payloads
        # are compressed exactly once; a retry re-ships the same bytes
        # (stage ① is charged on the first attempt only).  A round in which
        # no table ships runs no exchange at all and has nothing to fail.
        comm = self.simulator.comm
        sim = self.simulator
        compress_seconds = 0.0
        decompress_seconds = [0.0] * n
        if self.compress and pristine:
            compress_seconds = pipeline.compression_seconds(stage1_chunks)
            decompress_seconds = [0.0] + [
                pipeline.decompression_seconds(chunks) if chunks else 0.0
                for chunks in apply_chunks
            ]
        max_attempts = self.retry_policy.max_attempts if self.retry_policy else 1
        if not pristine:
            max_attempts = 0
        attempts = 0
        backoff_total = 0.0
        corrupted_total = 0
        succeeded = not pristine
        wire_seconds = 0.0
        for attempt in range(max_attempts):
            attempts = attempt + 1
            if attempt:
                backoff = self.retry_policy.backoff_seconds(
                    attempt, "publish", round_index
                )
                backoff_total += backoff
                sim.collective(backoff, EventCategory.RETRY)
            delivered = list(pristine)
            if self.fault_injector is not None:
                # Faults key on the table record's index in the round, so a
                # fault on a table that ships nothing damages nothing.
                for position, record_index in enumerate(shipped):
                    if self.fault_injector.corrupts(round_index, record_index, attempt):
                        delivered[position] = self.fault_injector.corrupt_payload(
                            pristine[position], round_index, record_index, attempt
                        )
            sendbufs: list[list[list[bytes]]] = [
                [[] for _ in range(n)] for _ in range(n)
            ]
            for shard_rank, payload in zip(placements, delivered):
                sendbufs[0][1 + shard_rank].append(payload)
            attempt_start = sim.makespan()
            stage1 = compress_seconds if attempt == 0 else 0.0
            if self.compress:
                comm.compressed_all_to_all(
                    sendbufs,
                    entries_per_pair=entries,
                    compress_seconds=[stage1] + [0.0] * n_servers,
                    decompress_seconds=decompress_seconds,
                )
            else:
                comm.all_to_all(sendbufs)
            # The exchange span includes the publisher's stage-①
            # compression, which elapses while replicas keep serving —
            # subtract it so wire_seconds (and downtime) cover only the
            # metadata/payload/shard-decode window of this attempt.
            wire_seconds = sim.makespan() - attempt_start - stage1
            bad = 0
            for payload in delivered:
                try:
                    unpack_meta(payload)
                except CorruptPayloadError:
                    bad += 1
            corrupted_total += bad
            if bad == 0:
                succeeded = True
                break
            if OBS.enabled:
                OBS.registry.counter(
                    "publish_retries_total",
                    "publication delivery attempts that failed verification",
                ).inc(1)

        apply_seconds: list[float] = []
        if succeeded:
            # Apply the shipped tables only: shard nodes recompress them
            # from the exact new logical state (only the row blocks that
            # changed); replicas drop their cached rows for those tables
            # and keep every other table's.  The simulated apply window
            # still prices a full-table recompress of each shipped table at
            # the shard codec's compress throughput (plus the staging
            # memcpy).
            gpu = sim.gpu
            apply_seconds = [0.0] * n_servers
            for shard_rank, (table_id, state) in zip(placements, new_state.items()):
                server = self.servers[shard_rank]
                self._published[table_id] = state
                server.set_table(table_id, state)
                nbytes = state.nbytes
                apply_seconds[shard_rank] += gpu.memcpy_time(nbytes) + gpu.throughput_kernel_time(
                    nbytes, PAPER_A100_PROFILE.for_codec(server.codec(table_id)).compress
                )
            if new_state:
                for replica in self.replicas:
                    replica.invalidate_tables(list(new_state))

        report = PublicationReport(
            iteration=int(iteration),
            compressed=self.compress,
            tables=tuple(table_records),
            wire_nbytes=sum(t.wire_nbytes for t in table_records),
            raw_nbytes=sum(t.raw_nbytes for t in table_records),
            wire_seconds=wire_seconds,
            compress_seconds=compress_seconds,
            apply_seconds=tuple(apply_seconds),
            attempts=attempts,
            retry_backoff_seconds=backoff_total,
            corrupted_payloads=corrupted_total,
            succeeded=succeeded,
        )
        self.reports.append(report)
        self._obs_publish(report)
        return report

    def _obs_publish(self, report: PublicationReport) -> None:
        """Annotate the publication on the fabric timeline and, when the
        observability runtime is enabled, feed the publish counters."""
        timeline = self.simulator.timeline
        end = self.simulator.makespan()
        start = max(0.0, end - report.wire_seconds - report.compress_seconds)
        timeline.record(
            rank=0,
            category=EventCategory.PUBLISH,
            start=start,
            duration=end - start,
            stream=OBS_STREAM,
            args={
                "iteration": report.iteration,
                "tables": len(report.tables),
                "wire_nbytes": report.wire_nbytes,
                "compressed": report.compressed,
            },
        )
        timeline.record_counter("publish_wire_bytes", end, float(report.wire_nbytes))
        if not OBS.enabled:
            return
        reg = OBS.registry
        if OBS.slo_hub is not None:
            OBS.slo_hub.feed("publish_staleness", end, self.staleness())
        mode = "compressed" if report.compressed else "raw"
        reg.counter("publish_rounds_total", "delta publication rounds").inc(1, mode=mode)
        reg.counter(
            "publish_wire_bytes_total", "bytes shipped to the serving tier"
        ).inc(report.wire_nbytes, mode=mode)
        reg.counter(
            "publish_raw_bytes_total", "uncompressed delta bytes per publication"
        ).inc(report.raw_nbytes, mode=mode)
        shipped = sum(record.shipped for record in report.tables)
        reg.counter(
            "publish_tables_shipped_total", "table deltas put on the wire"
        ).inc(shipped, mode=mode)
        reg.counter(
            "publish_tables_within_bound_total",
            "table deltas already within their error bound, so not shipped",
        ).inc(len(report.tables) - shipped, mode=mode)
        reg.histogram(
            "publish_downtime_seconds",
            "serving-tier update-absorption window per publication",
        ).observe(report.downtime_seconds, mode=mode)
        if report.corrupted_payloads:
            reg.counter(
                "publish_corrupt_payloads_total",
                "payloads that failed CRC32 verification on delivery",
            ).inc(report.corrupted_payloads)
        if not report.succeeded:
            reg.counter(
                "publish_failed_rounds_total",
                "publication rounds abandoned after exhausting retries",
            ).inc(1)
        if report.retry_backoff_seconds:
            reg.counter(
                "publish_retry_backoff_seconds_total",
                "backoff time charged to publication retries",
            ).inc(report.retry_backoff_seconds)


@dataclass(frozen=True)
class ServingTier:
    """One wired serving deployment: shards + replicas + publisher."""

    servers: tuple[EmbeddingShardServer, ...]
    replicas: tuple[InferenceReplica, ...]
    publisher: DeltaPublisher
    sharding: ShardingPlan


def build_serving_tier(
    trainer: "HybridParallelTrainer",
    n_shard_ranks: int,
    n_replicas: int,
    cache_rows: int,
    *,
    rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
    publication_network: NetworkModel | None = None,
    compress_publication: bool = True,
    retry_policy=None,
    checksum: bool = True,
    fault_injector=None,
    keep_stale: bool = False,
) -> ServingTier:
    """Stand up a consistent serving tier for a trainer's model.

    Shard servers, replicas, and the publisher are all built from the
    trainer's *current* model state, so the publisher's error-feedback
    baseline matches what the shards actually hold.  With the trainer's
    adaptive pipeline present, each table's shard codec and storage bound
    come from the controller at iteration 0.

    ``checksum`` may only be ``True``: every frame carries its CRC32, so
    no unchecked publication exists.  The keyword survives only because
    the benchmark harness passes it; ROADMAP direction 0 deletes it.
    """
    if checksum is not True:
        raise ValueError(f"checksum={checksum!r}: every frame carries a CRC32; pass True or omit it")
    n_shard_ranks = check_count("n_shard_ranks", n_shard_ranks, 1)
    n_replicas = check_count("n_replicas", n_replicas, 1)
    model = trainer.model
    sharding = ShardingPlan.size_balanced(list(model.config.table_cardinalities), n_shard_ranks)
    empty = [r for r in range(n_shard_ranks) if not sharding.tables_of(r)]
    if empty:
        raise ValueError(
            f"{model.config.n_tables} tables cannot populate {n_shard_ranks} shard "
            f"ranks (ranks {empty} would own no tables)"
        )
    controller = trainer.pipeline.controller if trainer.pipeline is not None else None
    servers = tuple(
        EmbeddingShardServer.from_model(
            model,
            sharding.tables_of(rank),
            controller,
            rows_per_block=rows_per_block,
        )
        for rank in range(n_shard_ranks)
    )
    replicas = tuple(
        InferenceReplica(i, servers, sharding, cache_rows, keep_stale=keep_stale)
        for i in range(n_replicas)
    )
    publisher = DeltaPublisher(
        trainer,
        servers,
        replicas,
        sharding=sharding,
        network=publication_network,
        compress=compress_publication,
        retry_policy=retry_policy,
        fault_injector=fault_injector,
    )
    return ServingTier(servers=servers, replicas=replicas, publisher=publisher, sharding=sharding)
