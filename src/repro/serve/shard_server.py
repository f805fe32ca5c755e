"""Compressed embedding shards, each stored block decoded once per payload.

An :class:`EmbeddingShardServer` is one parameter-server node of the
serving tier: it owns a subset of the model's embedding tables (per a
:class:`~repro.train.sharding.ShardingPlan`) and stores every table in
*compressed form*, reusing the training-side codecs from
:mod:`repro.compression`.  Tables are chopped into fixed-size **row
blocks** and each block is compressed independently.  The block is the
unit of storage, of re-encoding on an update, of decode and of wire
pricing (a remote pull moves the touched blocks' payloads).

A stored block is immutable between two publications, so it is decoded
once per payload: its first pull after each (re-)encode hands the whole
block to ``decompress_any`` (one ``parse_payload``) and keeps the decoded
rows, read-only, until :meth:`EmbeddingShardServer.set_table` replaces
that block's payload.  Every pull then indexes the kept rows and returns a
copy of the rows asked for.  On the ``publish_serve`` benchmark world a
block used to be parsed and decoded ~237 times between two publications
(once per replica cache miss); README "Decode each stored block once" has
the before/after.  The kept rows cost at most each table's raw float32
size, one more copy of rows the trainer and publisher already hold.

Error bounds follow the training side's dual-level adaptive story: each
table carries its own bound (typically the
:class:`~repro.adaptive.controller.AdaptiveController`'s per-table bound,
via :meth:`EmbeddingShardServer.from_model`).  A bound of ``0`` stores the
table losslessly (byte-LZ), so compressed lookups are bit-identical to the
raw rows — the contract the serving tests pin.

**Updates are incremental.**  :meth:`EmbeddingShardServer.set_table` takes
the table's exact new values and re-encodes only the row blocks whose
float32 bytes differ from what the block was last encoded from (one 16-byte
digest per block is kept for the comparison).  A publication round whose
delta quantised to zero — most rounds, by the same sparsity the delta codec
exploits on the wire — therefore costs one hash pass, not a recompression
of every block; and since each block is still encoded from exact values,
storage error never compounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.compression.registry import decompress_any, get_compressor
from repro.compression.serialization import CorruptPayloadError
from repro.compression.vector_lz import VectorLZCompressor
from repro.obs.runtime import OBS
from repro.utils.validation import check_count, check_finite_nonnegative

__all__ = [
    "ShardPull",
    "EmbeddingShardServer",
    "DEFAULT_ROWS_PER_BLOCK",
]

#: default row-block granularity: small enough that one hot row does not
#: drag megabytes across the fabric, large enough that the block payload
#: amortizes the codec's framing overhead
DEFAULT_ROWS_PER_BLOCK = 64

#: codec used when a table's error bound is 0 (lossless, bit-identical)
LOSSLESS_CODEC = "lz4_like"

#: per-block change-detection digest (blake2b-128 over the block's exact
#: float32 bytes): a changed block goes unnoticed only on a 2**-128 collision
DIGEST_BYTES = 16


@dataclass(frozen=True)
class ShardPull:
    """One row-granular read from a compressed shard.

    ``rows`` is the caller's own copy: writable, never a view of the
    block's kept rows.  ``compressed_nbytes`` is what a remote caller pulls
    over the wire (the touched blocks' payloads); ``raw_nbytes`` is what
    those *whole blocks* decode to, from block geometry (a short last block
    counts its own rows).  Neither depends on how many rows were asked for
    within a block.  The simulated replica prices its
    decompression kernel on ``raw_nbytes`` — the whole block — on every
    pull, while the host decodes the whole block only on its first pull
    after each (re-)encode: re-pricing it moves
    ``serve.simulator.sim_p99_ms`` and the serving golden digests, so it is
    its own change with its own before/after (ROADMAP direction 7(c)).
    """

    table_id: int
    rows: np.ndarray  # (n_requested, dim) float32
    codec: str
    blocks_touched: int
    compressed_nbytes: int
    raw_nbytes: int


class _CompressedTable:
    """One table stored as independently-compressed row blocks."""

    def __init__(
        self,
        table_id: int,
        values: np.ndarray,
        codec_name: str,
        error_bound: float,
        rows_per_block: int,
    ):
        values = np.ascontiguousarray(values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError(
                f"table {table_id}: expected (rows, dim) values, got shape {values.shape}"
            )
        check_finite_nonnegative(f"table {table_id}: error_bound", error_bound)
        self.table_id = table_id
        self.cardinality, self.dim = values.shape
        self.rows_per_block = check_count("rows_per_block", rows_per_block, 1)
        self.error_bound = float(error_bound)
        self.codec_name = codec_name
        self._codec = get_compressor(codec_name)
        self.raw_nbytes = int(values.nbytes)
        n_blocks = -(-self.cardinality // self.rows_per_block)
        self.blocks: list = [None] * n_blocks  # payload bytes, one per row block
        #: blake2b-128 of the exact float32 bytes each block was last encoded from
        self._digests: list = [None] * n_blocks
        #: each block's decoded rows (read-only), from its first read until
        #: ``_recompress`` replaces its payload
        self._decoded: list[np.ndarray | None] = [None] * n_blocks
        self._recompress(values)

    def _recompress(self, values: np.ndarray) -> int:
        """Re-encode the row blocks whose exact bytes differ from what they
        were last encoded from (every block on the first build); returns
        how many that was.  All-or-nothing: a rejected table (NaN, an
        outlier past the quantizer's range) leaves blocks *and* digests at
        the previous state, so the old table keeps serving and an equal
        re-publication of it is still recognised as unchanged."""
        raw = values.reshape(-1).view(np.uint8)
        block_nbytes = self.rows_per_block * self.dim * values.itemsize
        digests = [
            hashlib.blake2b(
                raw[b * block_nbytes : (b + 1) * block_nbytes], digest_size=DIGEST_BYTES
            ).digest()
            for b in range(len(self.blocks))
        ]
        dirty = [b for b, digest in enumerate(digests) if digest != self._digests[b]]
        for block_id, payload in self._encode_blocks(values, dirty).items():
            self.blocks[block_id] = payload
            self._digests[block_id] = digests[block_id]
            self._decoded[block_id] = None
        return len(dirty)

    def _encode_blocks(self, values: np.ndarray, block_ids: list[int]) -> dict:
        """``{block_id: payload}`` for the given row blocks of ``values``
        (a rejected block raises before any payload is kept)."""
        bound = self.error_bound if self.error_bound > 0 else None
        step = self.rows_per_block
        n_full = self.cardinality // step
        # Vector-LZ batches equal-shape inputs: the dirty full-size blocks go
        # through one compress_stack pass (payloads byte-identical to the
        # per-block calls).  The ragged tail block and every other codec
        # take the per-block call below.
        stacked = [b for b in block_ids if b < n_full]
        if not isinstance(self._codec, VectorLZCompressor) or len(stacked) < 2:
            stacked = []
        payloads: dict = {}
        if stacked:
            grid = values[: n_full * step].reshape(n_full, step, self.dim)
            first, last = stacked[0], stacked[-1]
            # a contiguous dirty run (first build, full churn) is a view
            stack = grid[first : last + 1] if last - first + 1 == len(stacked) else grid[stacked]
            payloads.update(zip(stacked, self._codec.compress_stack(stack, bound)))
        for block_id in block_ids:
            if block_id not in payloads:
                payloads[block_id] = self._codec.compress(
                    values[block_id * step : (block_id + 1) * step], bound
                )
        return payloads

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def compressed_nbytes(self) -> int:
        return sum(len(b) for b in self.blocks)

    def _block_rows(self, block_id: int) -> np.ndarray:
        """The decoded rows of one block: the whole block is decoded (one
        ``decompress_any``, one ``parse_payload``) on its first read after
        each (re-)encode and kept, read-only, until its payload changes.  A
        corrupt block names its table and row block."""
        rows = self._decoded[block_id]
        if rows is None:
            try:
                rows = decompress_any(self.blocks[block_id])
            except CorruptPayloadError as exc:
                message = f"table {self.table_id}, row block {block_id}: {exc}"
                raise CorruptPayloadError(message) from exc
            rows.flags.writeable = False
            self._decoded[block_id] = rows
        return rows

    def pull(self, row_ids: np.ndarray) -> ShardPull:
        """The requested rows (a fresh, writable copy) and the accounting of
        the blocks they live in.  One row — every pull a replica's gather
        makes — is a slice copy of its block's kept rows, priced from block
        geometry alone."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.ndim != 1:
            raise ValueError(f"row_ids must be 1-D, got shape {row_ids.shape}")
        step = self.rows_per_block
        if row_ids.size == 1:
            row_id = row_ids.item()
            if not 0 <= row_id < self.cardinality:
                raise IndexError(
                    f"table {self.table_id}: row ids out of range [0, {self.cardinality})"
                )
            block_id, r = divmod(row_id, step)
            return ShardPull(
                table_id=self.table_id,
                rows=self._block_rows(block_id)[r : r + 1].copy(),
                codec=self.codec_name,
                blocks_touched=1,
                compressed_nbytes=len(self.blocks[block_id]),
                # float32 bytes of the whole block (the last block may be short)
                raw_nbytes=min(step, self.cardinality - block_id * step) * self.dim * 4,
            )
        ids = row_ids.tolist()
        if not ids:
            touched = []
            rows = np.empty((0, self.dim), dtype=np.float32)
        else:
            low, high = min(ids), max(ids)
            if low < 0 or high >= self.cardinality:
                raise IndexError(
                    f"table {self.table_id}: row ids out of range [0, {self.cardinality})"
                )
            first = low // step
            if high // step == first:
                # Every row in one block: no grouping pass.
                touched = [first]
                rows = self._block_rows(first)[row_ids - first * step]
            else:
                rows = np.empty((row_ids.size, self.dim), dtype=np.float32)
                block_ids = row_ids // step
                touched = sorted({i // step for i in ids})
                for block_id in touched:
                    in_block = block_ids == block_id
                    rows[in_block] = self._block_rows(block_id)[row_ids[in_block] - block_id * step]
        # float32 bytes of the touched blocks' rows (the last block may be short)
        raw_rows = len(touched) * step
        if touched and touched[-1] == self.n_blocks - 1:
            raw_rows -= self.n_blocks * step - self.cardinality
        return ShardPull(
            table_id=self.table_id,
            rows=rows,
            codec=self.codec_name,
            blocks_touched=len(touched),
            compressed_nbytes=sum(len(self.blocks[b]) for b in touched),
            raw_nbytes=raw_rows * self.dim * 4,
        )


class EmbeddingShardServer:
    """One serving node's compressed embedding shards.

    Parameters
    ----------
    tables:
        ``{table_id: (rows, dim) float32 values}`` for the tables this
        shard node owns.
    error_bounds:
        Per-table absolute error bound (scalar applies to every table).
        ``0`` stores a table losslessly — lookups are bit-identical.
    codecs:
        Per-table codec registry name (scalar applies to every table);
        ignored for tables with bound ``0`` (stored with the lossless
        byte-LZ codec).
    rows_per_block:
        Row-block compression granularity — the unit of storage, of
        re-encoding, of decode and of a remote shard pull.
    """

    def __init__(
        self,
        tables: Mapping[int, np.ndarray],
        error_bounds: Mapping[int, float] | float = 1e-2,
        codecs: Mapping[int, str] | str = "hybrid",
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
    ):
        if not tables:
            raise ValueError("a shard server needs at least one table")

        def bound_for(table_id: int) -> float:
            if isinstance(error_bounds, Mapping):
                return float(error_bounds[table_id])
            return float(error_bounds)

        def codec_for(table_id: int) -> str:
            if isinstance(codecs, Mapping):
                return str(codecs[table_id])
            return str(codecs)

        self._tables: dict[int, _CompressedTable] = {}
        for table_id, values in tables.items():
            table_id = int(table_id)
            bound = bound_for(table_id)
            name = codec_for(table_id) if bound > 0 else LOSSLESS_CODEC
            self._tables[table_id] = _CompressedTable(table_id, values, name, bound, rows_per_block)

    @classmethod
    def from_model(
        cls,
        model,
        table_ids,
        controller=None,
        *,
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
    ) -> "EmbeddingShardServer":
        """Build a shard node from a :class:`~repro.model.dlrm.DLRM`'s
        tables.  With a controller, each table uses the adaptive per-table
        codec and its effective error bound at iteration 0 — the serving
        tier inherits the dual-level adaptive configuration wholesale.
        Without one, every table is stored with the hybrid codec at the
        constructor's default bound."""
        table_ids = [int(t) for t in table_ids]
        values = {t: model.tables[t].weight.data for t in table_ids}
        if controller is not None:
            bounds = {t: controller.error_bound(t, 0) for t in table_ids}
            names = {t: controller.compressor_name(t) for t in table_ids}
            return cls(values, bounds, names, rows_per_block)
        return cls(values, rows_per_block=rows_per_block)

    # -------------------------------------------------------------- queries

    def table_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._tables))

    def _table(self, table_id: int) -> _CompressedTable:
        try:
            return self._tables[int(table_id)]
        except KeyError:
            raise KeyError(
                f"table {table_id} is not sharded here; this node owns {self.table_ids()}"
            ) from None

    def pull(self, table_id: int, row_ids: np.ndarray) -> ShardPull:
        """Row-granular read: the requested rows out of the blocks they
        live in (each decoded once per payload); the accounting is per
        touched block.  A single-row read — one per replica cache miss —
        costs an index and a slice copy of one kept block; no decode runs
        unless the block's payload changed since its last read."""
        pull = self._table(table_id).pull(row_ids)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("shard_pulls_total", "row-granular shard reads").inc()
            reg.counter(
                "shard_pull_blocks_total", "compressed blocks decoded for pulls"
            ).inc(pull.blocks_touched)
            reg.counter(
                "shard_pull_bytes_total", "bytes moved for pulls"
            ).inc(pull.compressed_nbytes, kind="compressed")
            reg.counter(
                "shard_pull_bytes_total", "bytes moved for pulls"
            ).inc(pull.raw_nbytes, kind="raw")
        return pull

    def error_bound(self, table_id: int) -> float:
        return self._table(table_id).error_bound

    def codec(self, table_id: int) -> str:
        return self._table(table_id).codec_name

    def dim(self, table_id: int) -> int:
        return self._table(table_id).dim

    # -------------------------------------------------------------- updates

    def set_table(self, table_id: int, values: np.ndarray) -> int:
        """Replace one table's contents with the given exact values.

        "Recompress from exact values" means: every row block whose float32
        bytes differ from what it was last encoded from is encoded afresh
        from ``values`` (never decode-add-encode on the lossy storage, so
        deltas cannot compound storage error across publications); a block
        whose bytes are identical keeps its payload, which already encodes
        exactly those bytes (every codec is stateless, so a re-encode would
        reproduce it byte for byte).  The comparison is
        bitwise over a blake2b-128 digest per block — ``-0.0`` vs ``+0.0``
        or a different NaN payload counts as a change, and a changed block
        is missed only on a digest collision (probability 2**-128 per
        comparison).

        All-or-nothing: if any changed block is rejected (NaN, an outlier
        past the quantizer's range) the table keeps serving its previous
        blocks, and an untouched block keeps its payload object.  Returns
        the new compressed size."""
        table = self._table(table_id)
        values = np.ascontiguousarray(values, dtype=np.float32)
        if values.shape != (table.cardinality, table.dim):
            raise ValueError(
                f"table {table_id}: expected shape {(table.cardinality, table.dim)}, "
                f"got {values.shape}"
            )
        reencoded = table._recompress(values)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter(
                "shard_blocks_reencoded_total", "row blocks re-encoded by set_table"
            ).inc(reencoded, table=table.table_id)
            reg.counter(
                "shard_blocks_unchanged_total", "row blocks set_table left as they were"
            ).inc(table.n_blocks - reencoded, table=table.table_id)
        return table.compressed_nbytes

    def __repr__(self) -> str:
        return f"EmbeddingShardServer(tables={len(self._tables)})"
