"""Numerically-exact collectives over in-process rank buffers.

The simulation separates *numerics* from *timing*: a
:class:`Communicator` moves the actual Python objects between per-rank
buffer lists (so receivers see bit-identical data — compression noise is
the only lossy step anywhere), while the wire time of each collective is
priced by the owning simulator's :class:`~repro.dist.network.NetworkModel`
and charged to every rank's clock.

``compressed_all_to_all`` implements the exchange discipline of the
paper's pipeline: because error-bounded payloads have *variable* size,
receivers cannot post buffers until they learn the sizes — so a
fixed-size metadata all-to-all (stage ②) precedes the payload all-to-all
(stage ③).  Each ``sendbufs[src][dst]`` entry may be a single buffer or a
*sequence* of per-chunk payloads (one per table slice); receivers get the
batch back intact and can hand it to
:meth:`repro.train.pipeline.CompressionPipeline.decompress_batch` so the
peek-table/codebook caches amortize across the whole exchange.

With ``overlap=True`` the exchange runs as a *chunk-level pipeline*: each
rank's stage-① compression is split into ``chunks_per_rank`` real chunk
kernels on its ``compute`` stream, and each chunk becomes its own wire
event on the ``comm`` stream — chunk ``i``'s wire starts only after its
compress finishes *and* the previous chunk's wire slot frees, and stage-④
decode of chunk ``i`` starts at its arrival (when the slowest sender's
matching chunk has cleared the wire).  This is the paper's future-work
NCCL integration priced end to end, with honest per-chunk stall
accounting instead of an analytic first/last-chunk correction.  Chunk
wire events are priced at each chunk's *actual byte share* of the
collective, conserving per-rank wire totals — so the pipelined makespan
never exceeds the sequential layout, never drops below the
``max(compute, wire)`` floor, and degenerates to the single-collective
model at one chunk, for arbitrary payload layouts.  With even splits
(single indivisible buffers, whose k slices genuinely are equal shares)
the makespan is additionally monotone non-increasing in the chunk count;
honestly uneven shares can trade that away.  The chunk-pipeline property
tests pin all of these laws.

``overlap_compute_seconds`` slots rank-local compute (e.g. the trainer's
bottom-MLP backward kernels) between the compress and decode stages on
the ``compute`` stream, so an exchange issued *before* that compute
overlaps it cross-stage on the wire.

The pipeline is scheduled in two halves.  A *builder*
(``Communicator._build_pipeline``) computes every stage's starts and
durations as ``(n_ranks, max_chunks)`` arrays — each stage advances all
ranks one chunk at a time, with the same IEEE operations in the same
order as charging the events one by one, so the ledger is bit-identical
to that model (``tests/dist/test_ledger_golden.py`` pins it) — and a
*charger* (``Communicator._charge_pipeline``) appends each stage through
one ``Timeline.record_batch`` call and writes the stream clocks back.
The charger's invariant: **stages are appended rank-major** (all of rank
0's chunks, then rank 1's, …) although they are computed wave-major.
``repro.obs.critpath`` detects a collective as a contiguous run of
identical spans on distinct ranks; a wave-major ledger would put the
equal-cost chunk-``j`` kernels of different ranks next to each other and
be mis-read as barriers, changing every critical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.dist.timeline import COMM_STREAM, COMPUTE_STREAM, EventCategory
from repro.obs.runtime import OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dist.simulator import ClusterSimulator

__all__ = ["Communicator", "payload_nbytes"]


def payload_nbytes(payload: object) -> int:
    """Wire size of one buffer: arrays by ``nbytes``, byte strings by
    length, lists/tuples of buffers by the sum of their parts."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, memoryview):
        return payload.nbytes  # len() would count items, not bytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(part) for part in payload)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


#: C-level sizers for a homogeneous run of flat buffers (exact type match;
#: anything else — subclasses, nested sequences, mixed runs — goes through
#: :func:`payload_nbytes` part by part)
_FLAT_SIZERS = {
    bytes: len,
    bytearray: len,
    memoryview: attrgetter("nbytes"),
    np.ndarray: attrgetter("nbytes"),
}


class _PayloadSizes(NamedTuple):
    """One flat sizing pass over ``sendbufs``: every atomic part's wire
    size in (src, dst, slice) order, and how the parts group into pairs."""

    sizes: np.ndarray  # int64, one per atomic part
    counts: np.ndarray  # int64 (n * n,): parts per ordered pair, src-major
    sliced: np.ndarray  # bool (n * n,): the pair posted a *sequence* of slices
    byte_matrix: np.ndarray  # int64 (n, n): bytes per ordered pair


class _Stage(NamedTuple):
    """One stage of a pipelined exchange as :meth:`Timeline.record_batch`
    arguments, its events flattened rank-major."""

    ranks: np.ndarray
    category: str
    starts: np.ndarray
    durations: np.ndarray
    stream: str
    args: object
    release_edges: list | None


@dataclass
class _PipelineSchedule:
    """What :meth:`Communicator._build_pipeline` hands the charger: the
    stages in ledger order and the two stream clocks after the last event
    — plus, for the stall/hidden accounting, each rank's chunk count and
    the per-chunk end times and *nominal* (as priced) seconds of the wire
    events and of the compute-stream kernels, as ``(on, ends, seconds)``
    per kernel kind with ``on`` marking the ranks that ran it."""

    stages: list[_Stage]
    compute_clock: np.ndarray
    comm_clock: np.ndarray
    chunks: np.ndarray
    wire_ends: np.ndarray
    wire_seconds: np.ndarray
    compute_spans: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


class Communicator:
    """Exact in-process collectives billed against the simulated network."""

    def __init__(self, simulator: "ClusterSimulator"):
        self.simulator = simulator
        self._exchange_counter = 0

    @property
    def n_ranks(self) -> int:
        return self.simulator.n_ranks

    # ------------------------------------------------------ observability

    @staticmethod
    def _obs_stage(stage: str, seconds: float, nbytes: int | None = None) -> None:
        """Record one stage's charged wire/device seconds (summed over the
        ranks that pay them) and, when known, its bytes on the wire."""
        reg = OBS.registry
        reg.counter(
            "comm_seconds_total",
            "charged seconds per exchange stage, summed over ranks",
        ).inc(seconds, stage=stage)
        if nbytes is not None:
            reg.counter(
                "comm_bytes_total", "bytes on the wire per exchange stage"
            ).inc(nbytes, stage=stage)

    @staticmethod
    def _wire_nbytes(byte_matrix: np.ndarray) -> int:
        """Off-diagonal byte total — self-destined slices never hit the wire."""
        return int(byte_matrix.sum() - np.trace(byte_matrix))

    def _check_square(self, sendbufs: Sequence[Sequence[object]]) -> None:
        n = self.n_ranks
        if len(sendbufs) != n:
            raise ValueError(f"expected {n} send-buffer rows, got {len(sendbufs)}")
        for src, row in enumerate(sendbufs):
            if len(row) != n:
                raise ValueError(f"rank {src} posted {len(row)} buffers, expected {n}")

    def _size_payloads(
        self,
        sendbufs: Sequence[Sequence[object]],
        entries_per_pair: int | np.ndarray = 1,
    ) -> _PayloadSizes:
        """Size every posted buffer in one flat pass.

        A *sequence* payload contributes one size per slice (slice
        boundaries constrain chunking), a single indivisible buffer one
        size (the wire may cut it anywhere).  The byte matrix — and, in
        :meth:`_chunk_wire_fractions`, the chunk byte shares — are then
        ``cumsum`` differences over that one vector.

        Posted payload batches must match the advertised metadata counts:
        a sender whose ``sendbufs[src][dst]`` sequence disagrees with its
        ``entries_per_pair[src, dst]`` record count would make the
        receiver mis-slice the batch — fail loudly with the rank and both
        counts instead of a downstream KeyError/IndexError.
        """
        self._check_square(sendbufs)
        n = self.n_ranks
        pairs = list(chain.from_iterable(sendbufs))
        sliced = np.fromiter(
            map(isinstance, pairs, repeat((list, tuple))), dtype=bool, count=n * n
        )
        groups = [pair if is_seq else (pair,) for pair, is_seq in zip(pairs, sliced.tolist())]
        counts = np.fromiter(map(len, groups), dtype=np.int64, count=n * n)
        if not np.isscalar(entries_per_pair):
            expected = np.asarray(entries_per_pair).astype(np.int64).ravel()
            wrong = sliced & (expected != 0) & (counts != expected)
            if wrong.any():
                src, dst = divmod(int(np.argmax(wrong)), n)
                want = int(expected[src * n + dst])
                raise ValueError(
                    f"rank {src} posted {counts[src * n + dst]} payload(s) for rank "
                    f"{dst} but advertised {want} metadata "
                    f"entr{'y' if want == 1 else 'ies'}; senders must "
                    "post exactly one payload per metadata record"
                )
        parts = list(chain.from_iterable(groups))
        kinds = set(map(type, parts))
        sizer = _FLAT_SIZERS.get(kinds.pop()) if len(kinds) == 1 else None
        sizes = np.fromiter(
            map(sizer or payload_nbytes, parts), dtype=np.int64, count=len(parts)
        )
        running = np.concatenate(([0], np.cumsum(sizes)))
        pair_ends = np.cumsum(counts)
        byte_matrix = (running[pair_ends] - running[pair_ends - counts]).reshape(n, n)
        return _PayloadSizes(sizes, counts, sliced, byte_matrix)

    # --------------------------------------------------------- all-to-all

    def all_to_all(
        self,
        sendbufs: Sequence[Sequence[object]],
        category: str = EventCategory.ALLTOALL_FWD,
    ) -> list[list[object]]:
        """Exchange ``sendbufs[src][dst]`` -> ``recvbufs[dst][src]``.

        Payloads (arrays, byte strings, or sequences thereof) are handed
        over untouched, so the data path is exact; the wire time of the
        full variable-size exchange is charged once to all ranks under
        ``category``.
        """
        matrix = self._size_payloads(sendbufs).byte_matrix
        seconds = self.simulator.network.all_to_all_time(matrix)
        self.simulator.collective(seconds, category)
        if OBS.enabled:
            self._obs_stage("payload", seconds * self.n_ranks, self._wire_nbytes(matrix))
        return [list(column) for column in zip(*sendbufs)]

    def all_to_all_bytes(
        self,
        byte_matrix: np.ndarray,
        category: str = EventCategory.ALLTOALL_FWD,
        *,
        overlap_compute_seconds: Sequence[float] | None = None,
        overlap_compute_category: str = EventCategory.BOTTOM_MLP_BWD,
    ) -> float:
        """Charge the wire time of a variable-size all-to-all *without*
        moving data — for exchanges whose numerics the caller shortcuts
        (e.g. the trainer's uncompressed gradient all-to-all, where every
        rank's contribution is already computed in process).

        With ``overlap_compute_seconds`` the exchange overlaps cross-stage:
        the wire is charged on every rank's ``comm`` stream (released at
        the usual all-ranks barrier, identical spans) while the given
        rank-local compute runs concurrently on each ``compute`` stream —
        the trainer's issue-the-exchange-then-launch-kernels discipline.
        Returns the wire's common end time either way."""
        matrix = np.asarray(byte_matrix)
        n = self.n_ranks
        if matrix.shape != (n, n):
            raise ValueError(
                f"byte matrix shape {matrix.shape} does not match {n} ranks"
            )
        seconds = self.simulator.network.all_to_all_time(matrix)
        if OBS.enabled:
            self._obs_stage("payload", seconds * n, self._wire_nbytes(matrix))
        if overlap_compute_seconds is None:
            return self.simulator.collective(seconds, category)
        overlap_compute = self._per_rank_seconds(
            overlap_compute_seconds, "overlap_compute_seconds"
        )
        sim = self.simulator
        release = sim.makespan()  # every rank's send data must exist
        end = release + seconds
        for rank in range(n):
            sim.stream_compute(
                rank, seconds, category, COMM_STREAM, not_before=release
            )
            if overlap_compute[rank] > 0.0:
                sim.stream_compute(
                    rank, overlap_compute[rank], overlap_compute_category, COMPUTE_STREAM
                )
            sim.sync(rank)
        return end

    def _metadata_seconds(
        self, metadata_bytes_per_entry: int, entries_per_pair
    ) -> tuple[float, bool]:
        """Stage-② wire time and whether the round is skipped outright.
        ``entries_per_pair`` may be a scalar (every ordered pair carries
        the same record count) or an ``n x n`` matrix of per-pair record
        counts; an all-zero matrix skips the round entirely (e.g. a
        gradient exchange with self-describing payloads only)."""
        if metadata_bytes_per_entry <= 0:
            raise ValueError(
                f"metadata_bytes_per_entry must be > 0, got {metadata_bytes_per_entry!r}"
            )
        if np.isscalar(entries_per_pair):
            if entries_per_pair <= 0:
                raise ValueError(
                    f"entries_per_pair must be > 0, got {entries_per_pair!r}"
                )
            seconds = self.simulator.network.uniform_all_to_all_time(
                metadata_bytes_per_entry * entries_per_pair, self.n_ranks
            )
            return seconds, False
        entries = np.asarray(entries_per_pair)
        n = self.n_ranks
        if entries.shape != (n, n):
            raise ValueError(
                f"entries_per_pair matrix shape {entries.shape} does not match {n} ranks"
            )
        if (entries < 0).any():
            raise ValueError("entries_per_pair matrix entries must be >= 0")
        if not entries.any():
            return 0.0, True
        seconds = self.simulator.network.all_to_all_time(
            metadata_bytes_per_entry * entries.astype(np.float64)
        )
        return seconds, False

    def compressed_all_to_all(
        self,
        sendbufs: Sequence[Sequence[object]],
        metadata_bytes_per_entry: int = 16,
        entries_per_pair: int | np.ndarray = 1,
        category: str = EventCategory.ALLTOALL_FWD,
        *,
        overlap: bool = False,
        compress_seconds: Sequence[float] | None = None,
        decompress_seconds: Sequence[float] | None = None,
        chunks_per_rank: int | Sequence[int] | None = None,
        compress_category: str = EventCategory.COMPRESS,
        decompress_category: str = EventCategory.DECOMPRESS,
        overlap_compute_seconds: Sequence[float] | None = None,
        overlap_compute_category: str = EventCategory.BOTTOM_MLP_BWD,
    ) -> list[list[object]]:
        """Stages ①-④: compression, metadata round, payloads, decompression.

        Each ordered pair first exchanges ``entries_per_pair`` metadata
        records of ``metadata_bytes_per_entry`` bytes (compressed size +
        codec id per slice), charged as :data:`EventCategory.METADATA`;
        the variable-size payload exchange follows.  ``entries_per_pair``
        may be an ``n x n`` per-pair count matrix; all zeros skips the
        metadata round (an exchange with self-describing framing only).

        When ``compress_seconds`` / ``decompress_seconds`` give per-rank
        stage-①/④ device times, the communicator charges them too — the
        single entry point for the whole compressed exchange, so trainers
        never touch the simulator's clocks for communication:

        * ``overlap=False`` — strictly sequential: every rank compresses,
          the cluster exchanges metadata then payloads, every rank
          decompresses.
        * ``overlap=True`` — chunk-level pipeline: per-rank stage ① is
          split into ``chunks_per_rank`` (scalar or per-rank) real chunk
          kernels, and each chunk gets its own wire event on the rank's
          ``comm`` stream, priced at the chunk's *actual byte share* of
          the collective (chunks partition the rank's posted payloads in
          destination order, so per-slice payload batches yield honestly
          uneven — typically tail-light — chunk wire times).  Chunk
          ``i``'s wire starts once its compress finished and the previous
          chunk's wire slot freed; decode of chunk ``i`` starts at its
          arrival.  Compression/decompression
          run on each rank's ``compute`` stream, the wire on the ``comm``
          stream, so the chrome trace renders the chunk pipeline on
          separate lanes, every chunk event tagged with
          ``{"exchange", "chunk", "chunks"}`` args.

        ``overlap_compute_seconds`` (overlap mode only) charges rank-local
        compute between the compress and decode stages on each ``compute``
        stream — the cross-stage overlap hook: an exchange issued before
        e.g. the bottom-MLP backward kernels hides its wire behind them.
        """
        sim = self.simulator
        n = self.n_ranks
        meta_seconds, skip_metadata = self._metadata_seconds(
            metadata_bytes_per_entry, entries_per_pair
        )
        payload_sizes = self._size_payloads(sendbufs, entries_per_pair)
        byte_matrix = payload_sizes.byte_matrix
        payload_seconds = sim.network.all_to_all_time(byte_matrix)
        compress = self._per_rank_seconds(compress_seconds, "compress_seconds")
        decompress = self._per_rank_seconds(decompress_seconds, "decompress_seconds")
        chunks = self._per_rank_chunks(chunks_per_rank)
        overlap_compute = (
            None
            if overlap_compute_seconds is None
            else self._per_rank_seconds(overlap_compute_seconds, "overlap_compute_seconds")
        )

        if OBS.enabled:
            self._obs_stage("compress", sum(compress))
            if not skip_metadata:
                if np.isscalar(entries_per_pair):
                    meta_bytes = int(
                        metadata_bytes_per_entry * entries_per_pair * n * (n - 1)
                    )
                else:
                    meta_bytes = int(
                        metadata_bytes_per_entry
                        * self._wire_nbytes(np.asarray(entries_per_pair))
                    )
                self._obs_stage("metadata", meta_seconds * n, meta_bytes)
            self._obs_stage(
                "payload", payload_seconds * n, self._wire_nbytes(byte_matrix)
            )
            self._obs_stage("decompress", sum(decompress))
            OBS.registry.counter(
                "comm_exchanges_total", "compressed all-to-all exchanges"
            ).inc(1, mode="overlapped" if overlap else "sequential")

        if not overlap:
            for rank in range(n):
                if compress[rank] > 0.0:
                    sim.compute(rank, compress[rank], compress_category)
            if not skip_metadata:
                sim.collective(meta_seconds, EventCategory.METADATA)
            sim.collective(payload_seconds, category)
            for rank in range(n):
                if decompress[rank] > 0.0:
                    sim.compute(rank, decompress[rank], decompress_category)
                if overlap_compute is not None and overlap_compute[rank] > 0.0:
                    sim.compute(rank, overlap_compute[rank], overlap_compute_category)
        else:
            eid = self._exchange_counter
            self._exchange_counter += 1
            schedule = self._build_pipeline(
                np.array([sim.sync(rank) for rank in range(n)]),
                len(sim.timeline.events),
                eid,
                sim._check_seconds(meta_seconds),
                sim._check_seconds(payload_seconds),
                np.array(compress),
                np.array(decompress),
                np.array(chunks, dtype=np.int64),
                payload_sizes,
                skip_metadata=skip_metadata,
                category=category,
                compress_category=compress_category,
                decompress_category=decompress_category,
                overlap_compute=None if overlap_compute is None else np.array(overlap_compute),
                overlap_compute_category=overlap_compute_category,
            )
            self._charge_pipeline(schedule)
            if OBS.enabled:
                self._obs_overlap_accounting(schedule)
        return [list(column) for column in zip(*sendbufs)]

    def _per_rank_seconds(self, values, name: str) -> list[float]:
        if values is None:
            return [0.0] * self.n_ranks
        values = [float(v) for v in values]
        if len(values) != self.n_ranks:
            raise ValueError(f"{name} must have one entry per rank, got {len(values)}")
        if not all(0.0 <= v < math.inf for v in values):  # False for NaN too
            raise ValueError(f"{name} entries must be finite and >= 0")
        return values

    def _chunk_wire_fractions(
        self, payload_sizes: _PayloadSizes, chunks: np.ndarray
    ) -> np.ndarray:
        """Per-rank per-chunk share of the payload collective's wire time,
        as an ``(n_ranks, max(chunks))`` array (zero past a rank's last
        chunk).

        When a rank's row holds *sequences* of per-slice buffers (the
        trainer's per-table compressed payloads, which are self-describing
        and must ship whole), its ``k`` chunks are contiguous groups of
        those atomic slices in destination order, and each chunk's share
        is the actual bytes its group puts on the wire (self-destined
        slices count zero) — last chunks are often lighter, which sharpens
        the pipeline tail versus the former even ``payload_seconds / k``
        split.  A row of only indivisible buffers keeps equal-byte chunks:
        the wire may cut an opaque buffer anywhere, so its ``k`` slices
        genuinely are equal shares — and that preserves the chunk-count
        monotonicity law for the single-buffer shape.  Every rank's
        fractions sum to 1, so the per-rank wire total — and with it the
        sequential/analytic makespan bounds and the ``k = 1`` degeneracy —
        is unchanged for every layout.
        """
        n = self.n_ranks
        sizes, counts, sliced, _ = payload_sizes
        k = chunks[:, None]
        steps = np.arange(int(chunks.max()) + 1)
        equal = np.where(steps[:-1] < k, 1.0 / k, 0.0)
        # Atomic wire sizes in destination order: self-destined parts ship
        # nothing.  ``running`` is their prefix sum, so any contiguous
        # group's bytes is a difference of two entries.
        pair_of_part = np.repeat(np.arange(n * n), counts)
        on_wire = np.where(pair_of_part // n == pair_of_part % n, 0, sizes)
        running = np.concatenate(([0], np.cumsum(on_wire)))
        row_ends = np.cumsum(counts)[n - 1 :: n]
        n_parts = counts.reshape(n, n).sum(axis=1)
        row_starts = row_ends - n_parts
        total = running[row_ends] - running[row_starts]
        # Equal-byte chunks are the actual shares when the row posts only
        # indivisible buffers, puts nothing on the wire, or is sliced
        # finer than its atomic count.
        uneven = sliced.reshape(n, n).any(axis=1) & (total != 0) & (n_parts >= chunks)
        bounds = np.ceil(np.minimum(steps, k) * n_parts[:, None] / k).astype(np.int64)
        bounds += row_starts[:, None]
        chunk_bytes = running[bounds[:, 1:]] - running[bounds[:, :-1]]
        return np.where(
            uneven[:, None], chunk_bytes / np.where(uneven, total, 1)[:, None], equal
        )

    def _per_rank_chunks(self, chunks_per_rank) -> list[int]:
        if chunks_per_rank is None:
            return [self.n_ranks] * self.n_ranks  # one chunk per destination
        if np.isscalar(chunks_per_rank):
            chunks_per_rank = [chunks_per_rank] * self.n_ranks
        chunks = [int(c) for c in chunks_per_rank]
        if len(chunks) != self.n_ranks:
            raise ValueError(
                f"chunks_per_rank must have one entry per rank, got {len(chunks)}"
            )
        if any(c < 1 for c in chunks):
            raise ValueError("chunks_per_rank entries must be >= 1")
        return chunks

    def _schedule_stage(
        self,
        stages: list[_Stage],
        category: str,
        stream: str,
        clock: np.ndarray,
        not_before: np.ndarray | None,
        seconds: np.ndarray,
        active: np.ndarray,
        args: object = None,
        release_edges: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Schedule one stage on one stream of every rank as ``K`` *waves*
        and append it to ``stages``: wave ``j`` starts chunk ``j`` of
        every rank where ``active[:, j]`` at ``max(clock, not_before[:,
        j])`` for ``seconds[:, j]`` — exactly what ``K`` calls of
        ``ClusterSimulator.stream_compute`` per rank do, because a rank's
        chunk ``j`` depends on its own chunk ``j - 1`` (the stream clock)
        and on earlier stages only, never on another rank's chunk of this
        stage.  An attached ``FaultInjector`` bends every active event
        through the same ``adjust_stream_event`` hook.  The stage's events
        are the active ``(rank, chunk)`` entries flattened rank-major;
        ``args`` / ``release_edges`` are given in that order.

        Returns ``(ends, clock)``: ``ends[:, j]`` is the stream clock
        after wave ``j`` (so an inactive chunk reports the time its rank
        was already at), ``clock`` the final one.
        """
        injector = self.simulator.fault_injector
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

    def _build_pipeline(
        self,
        starts: np.ndarray,
        base: int,
        eid: int,
        meta_seconds: float,
        payload_seconds: float,
        compress: np.ndarray,
        decompress: np.ndarray,
        chunks: np.ndarray,
        payload_sizes: _PayloadSizes,
        *,
        skip_metadata: bool,
        category: str,
        compress_category: str,
        decompress_category: str,
        overlap_compute: np.ndarray | None,
        overlap_compute_category: str,
    ) -> _PipelineSchedule:
        """Schedule the chunk-level pipelined exchange ``eid`` for ranks
        whose streams are joined at ``starts``, as events that will land
        at ledger index ``base`` onwards.  Pure — nothing is recorded and
        no clock moves here; :meth:`_charge_pipeline` does that.

        Per rank ``r`` with ``k = chunks[r]``: stage ① runs as ``k`` chunk
        kernels on the ``compute`` stream; stage ③ runs as ``k`` chunk
        wire events on the ``comm`` stream — chunk ``j`` priced at its
        byte share of the collective (:meth:`_chunk_wire_fractions`) and
        released when its compress finished (the stream clock serializes
        the wire slots); stage ④ decodes chunk ``j`` once the slowest
        sender's matching chunk has cleared the wire.  The metadata round
        goes out once every rank's first chunk exists (the first sizes
        are known).

        Every stage is computed as ``(n_ranks, max_chunks)`` arrays with
        the per-event model's arithmetic, IEEE operation for operation
        (``max`` then ``+`` per chunk, in chunk order), so the ledger is
        bit-identical to charging the events one at a time.

        Invariants the chunk-pipeline property tests pin: the makespan
        never exceeds the sequential layout's ``max(compress) + meta +
        payload + max(decompress)`` and equals it at one chunk — for any
        byte shares (per-rank wire totals are conserved).  With even
        splits the makespan is additionally monotone non-increasing in
        the chunk count; honestly uneven byte shares can trade that away
        for a front-loaded chunk.
        """
        wire_fractions = self._chunk_wire_fractions(payload_sizes, chunks)
        n = self.n_ranks
        ranks = np.arange(n)
        live = np.arange(int(chunks.max())) < chunks[:, None]  # chunk j exists on rank r
        every_rank = np.ones((n, 1), dtype=bool)
        args_by_count = {
            k: [{"exchange": eid, "chunk": j, "chunks": k} for j in range(k)]
            for k in set(chunks.tolist())
        }

        def chunk_args(rank_on: np.ndarray | slice) -> list[dict]:
            return list(
                chain.from_iterable(args_by_count[k] for k in chunks[rank_on].tolist())
            )

        def ledger_indices(mask: np.ndarray, first: int) -> np.ndarray:
            indices = np.zeros(mask.shape, dtype=np.int64)
            indices[mask] = np.arange(first, first + np.count_nonzero(mask))
            return indices

        stages: list[_Stage] = []

        # Stage ①: k real compression chunk kernels per rank.  Each chunk
        # compresses the same slices its wire event ships, so chunk kernel
        # time follows the same byte shares (compressed bytes as the proxy
        # for the slices' input volume).  A rank that compresses for free
        # records nothing and has every chunk ready at its start time.
        comp_on = compress > 0.0
        comp_mask = live & comp_on[:, None]
        comp_seconds = compress[:, None] * wire_fractions
        comp_ends, compute_clock = self._schedule_stage(
            stages, compress_category, COMPUTE_STREAM, starts, None, comp_seconds,
            comp_mask, chunk_args(comp_on),
        )
        compute_spans = [(comp_on, comp_ends, comp_seconds)]
        comp_idx = ledger_indices(comp_mask, base)
        next_idx = base + np.count_nonzero(comp_mask)

        # Stage ②: the size table goes out once every rank's first chunk
        # is compressed (identical spans on every comm stream).  Its
        # release edges are exactly those first chunks.
        first_chunk_edges = comp_idx[comp_on, 0].tolist() or None
        meta_end = comp_ends[:, 0].max()
        comm_clock = starts
        wire_prefix = first_chunk_edges or []  # what releases every wire chunk
        if not skip_metadata:
            meta_ends, comm_clock = self._schedule_stage(
                stages, EventCategory.METADATA, COMM_STREAM, comm_clock,
                np.full((n, 1), meta_end), np.full((n, 1), meta_seconds), every_rank,
                {"exchange": eid}, [first_chunk_edges] * n,
            )
            next_idx += n
            meta_end = meta_ends[-1, 0]
            wire_prefix = [next_idx - 1]  # the last rank's metadata event

        # Stage ③: per-rank injection-port pipeline — chunk j's wire
        # starts once its compress finished and the previous chunk's wire
        # slot freed (the comm stream clock enforces the latter).  Release
        # edges: the metadata round (or, with metadata skipped, the first
        # chunks its release time was computed from) plus the chunk's own
        # compress kernel.
        unkerneled = wire_prefix or None  # shared by every free-compress chunk
        wire_edges: list[list[int] | None] = []
        for rank, k in enumerate(chunks.tolist()):
            if comp_on[rank]:
                wire_edges.extend(wire_prefix + [own] for own in comp_idx[rank, :k].tolist())
            else:
                wire_edges.extend([unkerneled] * k)
        wire_seconds = payload_seconds * wire_fractions
        wire_ends, comm_clock = self._schedule_stage(
            stages, category, COMM_STREAM, comm_clock, np.maximum(meta_end, comp_ends),
            wire_seconds, live, chunk_args(slice(None)), wire_edges,
        )
        wire_idx = ledger_indices(live, next_idx)

        # Cross-stage hook: rank-local compute issued right after the
        # compression kernels, so the wire (and decode stalls) hide it.
        if overlap_compute is not None:
            oc_on = overlap_compute > 0.0
            oc_seconds = overlap_compute[:, None]
            oc_ends, compute_clock = self._schedule_stage(
                stages, overlap_compute_category, COMPUTE_STREAM, compute_clock, None,
                oc_seconds, oc_on[:, None],
            )
            compute_spans.append((oc_on, oc_ends, oc_seconds))

        # Stage ④: decode of chunk j starts at its arrival — when the
        # slowest sender's fraction-matched chunk has cleared the wire.
        # Decode chunks split evenly: a receiver's chunk j holds slices
        # from *every* sender, and the sender-side byte shares don't
        # determine the per-receiver split.  Which sender chunk matches,
        # hence the arrival time and the n release edges, depends only on
        # (k, j) — computed once per distinct chunk count, not per rank.
        dec_on = decompress > 0.0
        arrivals = np.zeros(live.shape)
        edges_by_count: dict[int, list[tuple[int, ...]]] = {}
        for k in np.unique(chunks[dec_on]).tolist():
            upto = np.arange(1, k + 1)[:, None]
            matched = np.minimum(
                np.ceil(upto * chunks / k).astype(np.int64) - 1, chunks - 1
            )  # (k, n): sender src's chunk feeding receiver chunk j
            arrivals[chunks == k, :k] = wire_ends[ranks, matched].max(axis=1)
            edges_by_count[k] = [tuple(row) for row in wire_idx[ranks, matched].tolist()]
        dec_seconds = np.broadcast_to((decompress / chunks)[:, None], live.shape)
        dec_ends, compute_clock = self._schedule_stage(
            stages, decompress_category, COMPUTE_STREAM, compute_clock, arrivals,
            dec_seconds, live & dec_on[:, None], chunk_args(dec_on),
            list(chain.from_iterable(edges_by_count[k] for k in chunks[dec_on].tolist())),
        )
        compute_spans.append((dec_on, dec_ends, dec_seconds))
        return _PipelineSchedule(
            stages, compute_clock, comm_clock, chunks, wire_ends, wire_seconds, compute_spans
        )

    def _charge_pipeline(self, schedule: _PipelineSchedule) -> None:
        """Append a built schedule to the ledger, one ``record_batch`` per
        stage, and write the stream clocks back.

        Each stage is appended *rank-major* (rank 0's chunks, then rank
        1's, …), the order the per-event model recorded them in — and the
        one ``repro.obs.critpath`` relies on: it recognises a collective
        as a contiguous run of identical spans on distinct ranks, so a
        wave-major ledger (every rank's chunk 0, then every chunk 1) would
        mis-read equal-cost chunk kernels as barriers.
        """
        sim = self.simulator
        for stage in schedule.stages:
            sim.timeline.record_batch(*stage)
        sim._streams[COMPUTE_STREAM][:] = schedule.compute_clock.tolist()
        sim._streams[COMM_STREAM][:] = schedule.comm_clock.tolist()
        # The exchange hands decoded data back at a device-wide barrier.
        for rank in range(self.n_ranks):
            sim.sync(rank)

    def _obs_overlap_accounting(self, schedule: _PipelineSchedule) -> None:
        """Per-exchange stall-vs-hidden wire accounting (obs-enabled only).

        ``stall`` is wire-port idle time between consecutive chunk events
        (the wire waiting on compression); ``hidden`` is the chunked wire
        time that ran while this exchange kept the rank's compute stream
        busy — the same definitions ``chunk_pipeline_report`` applies to
        the whole timeline, charged here as running counters.
        """
        from repro.profiling.breakdown import _merge_intervals, _overlap_with_merged

        def intervals(ends: np.ndarray, seconds: np.ndarray, rank: int, k: int):
            return list(zip((ends - seconds)[rank, :k].tolist(), ends[rank, :k].tolist()))

        stall = 0.0
        hidden = 0.0
        for rank, k in enumerate(schedule.chunks.tolist()):
            wire_iv = intervals(schedule.wire_ends, schedule.wire_seconds, rank, k)
            stall += sum(
                max(0.0, wire_iv[j][0] - wire_iv[j - 1][1]) for j in range(1, k)
            )
            compute_iv = []
            for on, ends, seconds in schedule.compute_spans:
                if on[rank]:
                    compute_iv.extend(intervals(ends, seconds, rank, k))
            merged = _merge_intervals(compute_iv)
            hidden += sum(_overlap_with_merged(iv, merged) for iv in wire_iv)
        reg = OBS.registry
        reg.counter(
            "comm_wire_stall_seconds_total",
            "wire idle between chunks of pipelined exchanges (waiting on compression)",
        ).inc(stall)
        reg.counter(
            "comm_wire_hidden_seconds_total",
            "chunked wire seconds overlapped by same-rank compute",
        ).inc(hidden)

    # --------------------------------------------------------- all-reduce

    def all_reduce(
        self,
        arrays: Sequence[np.ndarray],
        category: str = EventCategory.ALLREDUCE,
    ) -> list[np.ndarray]:
        """Sum one array per rank; every rank receives the identical total.

        The reduction runs in fixed rank order so the result is
        deterministic (and equals the single-process sum bit for bit).
        """
        if len(arrays) != self.n_ranks:
            raise ValueError(f"expected {self.n_ranks} arrays, got {len(arrays)}")
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"all-reduce arrays must share a shape, got {sorted(shapes)}")
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) != 1:
            raise ValueError(
                f"all-reduce arrays must share a dtype, got {sorted(map(str, dtypes))}"
            )
        total = arrays[0].copy()
        for contribution in arrays[1:]:
            total += contribution
        seconds = self.simulator.network.all_reduce_time(total.nbytes, self.n_ranks)
        self.simulator.collective(seconds, category)
        if OBS.enabled:
            self._obs_stage(
                "allreduce", seconds * self.n_ranks, int(total.nbytes) * self.n_ranks
            )
        return [total.copy() for _ in range(self.n_ranks)]

    def _all_reduce_seconds(self, nbytes: float, algorithm: str) -> float:
        """Wire time of one all-reduce under the named schedule."""
        network = self.simulator.network
        if algorithm == "ring":
            return network.all_reduce_time(nbytes, self.n_ranks)
        if algorithm == "hierarchical":
            return network.hierarchical_all_reduce_time(nbytes, self.n_ranks)
        if algorithm == "switch":
            return network.switch_all_reduce_time(nbytes, self.n_ranks)
        raise ValueError(
            f"algorithm must be 'ring', 'hierarchical', or 'switch', got {algorithm!r}"
        )

    def all_reduce_bytes(
        self,
        nbytes: float,
        category: str = EventCategory.ALLREDUCE,
        algorithm: str = "ring",
    ) -> float:
        """Charge an all-reduce of ``nbytes`` without moving data (for
        reductions whose numerics the caller computes in process, e.g. the
        trainer's replicated data-parallel MLP gradients).  ``algorithm``
        picks the flat ``"ring"``, the topology-aware ``"hierarchical"``,
        or the in-network ``"switch"`` schedule (the latter degenerates to
        hierarchical without aggregation nodes).  Returns the common end
        time."""
        seconds = self._all_reduce_seconds(nbytes, algorithm)
        if OBS.enabled:
            self._obs_stage(
                "allreduce", seconds * self.n_ranks, int(nbytes) * self.n_ranks
            )
        return self.simulator.collective(seconds, category)

    def _aggregation_hop_equivalents(self, algorithm: str) -> float:
        """Full-payload decode-sum-recode passes on the critical path of a
        *non*-homomorphic compressed all-reduce — the round-trips a
        homomorphic codec removes.

        Ring: each of the ``n - 1`` reduce-scatter steps re-codes a
        ``1/n`` shard → ``(n-1)/n`` payload equivalents.  Hierarchical:
        the intra reduce-scatter plus the inter rail rings →
        ``(g-1)/g + (N-1)/(N g)``.  Switch: the node and spine aggregators
        each decode/recode the full payload → ``2``.
        """
        n = self.n_ranks
        if n <= 1:
            return 0.0
        topology = self.simulator.network.topology
        if algorithm == "switch" and topology is not None and topology.switch_aggregation:
            return 2.0
        if algorithm in ("hierarchical", "switch") and topology is not None:
            g = topology._balanced_gpus_per_node()
            n_nodes = topology.n_nodes
            total = (g - 1) / g if g > 1 else 0.0
            if n_nodes > 1:
                total += (n_nodes - 1) / (n_nodes * g)
            return total
        return (n - 1) / n

    def compressed_all_reduce(
        self,
        arrays: Sequence[np.ndarray],
        codec: str = "quant_sum",
        error_bound: float | None = None,
        category: str = EventCategory.ALLREDUCE,
        *,
        algorithm: str = "ring",
        in_network: bool = True,
        encode_seconds: Sequence[float] | None = None,
        decode_seconds: Sequence[float] | None = None,
        pool: object | None = None,
    ) -> list[np.ndarray]:
        """All-reduce whose payloads are aggregated *in compressed space*.

        Each rank encodes its contribution once with a homomorphic codec
        (``"quant_sum"`` / ``"count_sum"``), intermediate hops sum the
        payloads directly via :func:`repro.compression.agg_sum` — no
        decode anywhere in the reduction — and the final aggregate is
        decoded exactly once per rank.  The decoded total is therefore
        independent of hop count and fold order (bit-identical for
        ``count_sum``; within the closed-form composed bound
        ``n_ranks * error_bound`` for ``quant_sum``), and the wire carries
        compressed bytes end to end.

        Timing: the collective is priced at the *largest* payload seen on
        any hop under the chosen schedule (``"ring"``, ``"hierarchical"``,
        or ``"switch"`` — the in-network aggregation tree, which
        degenerates exactly to hierarchical when the topology has no
        aggregation nodes).  ``encode_seconds`` / ``decode_seconds`` give
        per-rank codec device times, charged once at the leaves and once
        at the end.  ``in_network=False`` models the *baseline* discipline
        for a codec that cannot aggregate: every intermediate hop must
        decode, sum, and re-encode, so the collective additionally pays
        the hop-equivalent codec time on its critical path — the pipelined
        makespan is never below the ``in_network=True`` one, which the
        property tests pin.

        ``pool`` (a :class:`~repro.compression.parallel.BitstreamPool`)
        routes the final decode through a pooled scratch lease instead of
        a fresh per-call output allocation.

        Returns one decoded total per rank (fresh arrays, original shape).
        """
        from repro.compression.homomorphic import agg_fold
        from repro.compression.registry import get_compressor

        n = self.n_ranks
        if len(arrays) != n:
            raise ValueError(f"expected {n} arrays, got {len(arrays)}")
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"all-reduce arrays must share a shape, got {sorted(shapes)}")
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) != 1:
            raise ValueError(
                f"all-reduce arrays must share a dtype, got {sorted(map(str, dtypes))}"
            )
        if algorithm not in ("ring", "hierarchical", "switch"):
            raise ValueError(
                f"unknown all-reduce algorithm {algorithm!r}; "
                "expected 'ring', 'hierarchical', or 'switch'"
            )
        compressor = get_compressor(codec)
        if not getattr(compressor, "homomorphic", False):
            raise ValueError(
                f"codec {codec!r} is not homomorphic; compressed_all_reduce needs "
                "payloads that sum in compressed space (e.g. 'quant_sum', 'count_sum')"
            )
        shape = arrays[0].shape
        flat = [np.ascontiguousarray(a).reshape(1, -1) for a in arrays]
        bound = error_bound if compressor.error_bounded else None
        leaves = [compressor.compress(a, bound) for a in flat]
        final = agg_fold(leaves)

        encode = self._per_rank_seconds(encode_seconds, "encode_seconds")
        decode = self._per_rank_seconds(decode_seconds, "decode_seconds")
        hop_nbytes = max(len(final), max(len(p) for p in leaves))
        wire_seconds = self._all_reduce_seconds(hop_nbytes, algorithm)
        collective_seconds = wire_seconds
        if not in_network:
            collective_seconds += self._aggregation_hop_equivalents(algorithm) * (
                max(encode) + max(decode)
            )

        sim = self.simulator
        for rank in range(n):
            if encode[rank] > 0.0:
                sim.compute(rank, encode[rank], EventCategory.COMPRESS)
        sim.collective(collective_seconds, category)
        for rank in range(n):
            if decode[rank] > 0.0:
                sim.compute(rank, decode[rank], EventCategory.DECOMPRESS)

        if OBS.enabled:
            self._obs_stage(
                "homomorphic_allreduce", collective_seconds * n, hop_nbytes * n
            )
            reg = OBS.registry
            reg.counter(
                "comm_homomorphic_aggregated_bytes_total",
                "compressed payload bytes summed without decoding",
            ).inc(sum(len(p) for p in leaves), codec=codec, algorithm=algorithm)
            reg.counter(
                "comm_homomorphic_hops_saved_total",
                "decode-sum-recode round-trips removed by in-network aggregation",
            ).inc(n - 1 if in_network else 0, codec=codec, algorithm=algorithm)

        if pool is not None:
            lease, view = compressor.decompress_into(final, pool=pool)
            total = view.copy()
            del view  # drop the arena view so release recycles cleanly
            lease.release()
        else:
            total = compressor.decompress(final)
        total = total.reshape(shape)
        return [total.copy() for _ in range(n)]

    # ---------------------------------------------------------- broadcast

    def broadcast(self, payload: object, root: int = 0, category: str = EventCategory.METADATA) -> list[object]:
        """Hand ``root``'s payload to every rank (tree: ``ceil(log2 n)``
        latency rounds, full payload per hop).

        Mutable payloads are copied per rank — as with :meth:`all_reduce`,
        no two ranks may alias one buffer."""
        if not 0 <= root < self.n_ranks:
            raise ValueError(f"root must be in [0, {self.n_ranks}), got {root!r}")
        n = self.n_ranks
        if n > 1:
            nbytes = payload_nbytes(payload)
            rounds = int(np.ceil(np.log2(n)))
            seconds = rounds * self.simulator.network.point_to_point_time(nbytes)
            self.simulator.collective(seconds, category)
            if OBS.enabled:
                self._obs_stage("broadcast", seconds * n, nbytes * rounds)

        def deliver() -> object:
            if isinstance(payload, np.ndarray):
                return payload.copy()
            if isinstance(payload, bytearray):
                return bytearray(payload)
            return payload  # bytes/memoryview and other immutables

        return [deliver() for _ in range(n)]
