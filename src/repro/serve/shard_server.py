"""Compressed embedding shards with row-granular decode.

An :class:`EmbeddingShardServer` is one parameter-server node of the
serving tier: it owns a subset of the model's embedding tables (per a
:class:`~repro.train.sharding.ShardingPlan`) and stores every table in
*compressed form*, reusing the training-side codecs from
:mod:`repro.compression`.  Tables are chopped into fixed-size **row
blocks** and each block is compressed independently.  The *block* is the
unit of storage, of re-encoding on an update and of wire pricing (a remote
pull moves the touched blocks' payloads); the *row* is the unit of decode:
a lookup hands the block to ``decompress_any(block, rows=...)``, which for
the paper's two encoders decodes the rows asked for and not their
neighbours — vector-LZ matches whole rows and packs literal rows at one
fixed bit width, so a row is found by flag-map popcounts and a walk down
its back-reference chain; Huffman is entered at a chunk start and walked
forward to the row.  (A request for a large share of a block, or a block
held by a codec without a row kernel, decodes the block once and indexes
it.)  On the ``publish_serve`` benchmark world a one-row pull went from
145 to ~50 us on ``vector_lz`` blocks and from 545 to ~180 us on ``entropy``
ones; README "Row-granular shard pulls" has the table.

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

from repro.compression.base import Compressor
from repro.compression.cache import TableCodebookCache
from repro.compression.parallel.pool import BitstreamPool
from repro.compression.registry import decompress_any, get_compressor
from repro.compression.vector_lz import VectorLZCompressor
from repro.obs.runtime import OBS
from repro.utils.validation import check_positive

__all__ = [
    "ShardPull",
    "EmbeddingShardServer",
    "DEFAULT_ROWS_PER_BLOCK",
    "serving_codec",
    "serving_codec_pool",
]

#: default row-block granularity: small enough that one hot row does not
#: drag megabytes across the fabric, large enough that the block payload
#: amortizes the codec's framing overhead
DEFAULT_ROWS_PER_BLOCK = 64

#: codec used when a table's error bound is 0 (lossless, bit-identical)
LOSSLESS_CODEC = "lz4_like"

#: pin/refresh windows for the serving-side hot-loop caches — a build or a
#: full-churn round recompresses every block of a table back to back, so the
#: windows comfortably cover one table's block count
SERVING_PIN_REFRESH = 64
SERVING_CODEBOOK_REFRESH = 8

#: per-block change-detection digest (blake2b-128 over the block's exact
#: float32 bytes): a changed block goes unnoticed only on a 2**-128 collision
DIGEST_BYTES = 16


def serving_codec(name: str) -> Compressor:
    """A codec instance with its hot-loop caches enabled.

    The serve tier compresses *keyed by table* in bulk (every changed block
    of a table per recompression, every table delta per publication round), so
    the hybrid codec gets pinned-encoder replay and the entropy codec a
    per-table codebook cache — the same amortizations the training hot
    loop uses (and the ``hybrid_pinned`` perf rows measure at 3-5x).
    """
    if name == "hybrid":
        # Pin replay for the try-both trial *and* a codebook cache for the
        # entropy leg — tables whose pinned winner is Huffman recompress
        # their changed blocks every publication round.
        return get_compressor(
            name,
            pin_refresh=SERVING_PIN_REFRESH,
            codebook_cache=TableCodebookCache(refresh_every=SERVING_CODEBOOK_REFRESH),
        )
    if name == "entropy":
        return get_compressor(
            name, codebook_cache=TableCodebookCache(refresh_every=SERVING_CODEBOOK_REFRESH)
        )
    return get_compressor(name)


def serving_codec_pool():
    """A per-name memo over :func:`serving_codec` — one pool per owner
    (shard node, publisher), so cache state never leaks between tiers.
    Returns a ``get(name) -> Compressor`` callable."""
    codecs: dict[str, Compressor] = {}

    def pooled(name: str) -> Compressor:
        if name not in codecs:
            codecs[name] = serving_codec(name)
        return codecs[name]

    return pooled


@dataclass(frozen=True)
class ShardPull:
    """One row-granular read from a compressed shard.

    ``compressed_nbytes`` is what a remote caller pulls over the wire (the
    touched blocks' payloads); ``raw_nbytes`` is what those *whole blocks*
    decode to, from block geometry.  The simulated replica still prices its
    decompression kernel on ``raw_nbytes`` — the whole block — although the
    host now decodes only the rows: re-pricing it moves
    ``serve.simulator.sim_p99_ms`` and the serving golden digests, so it is
    its own change with its own before/after (ROADMAP direction 4(c')).
    """

    table_id: int
    rows: np.ndarray  # (n_requested, dim) float32
    codec: str
    blocks_touched: int
    compressed_nbytes: int
    raw_nbytes: int

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])


class _CompressedTable:
    """One table stored as independently-compressed row blocks."""

    def __init__(
        self,
        table_id: int,
        values: np.ndarray,
        codec_name: str,
        error_bound: float,
        rows_per_block: int,
        codec: Compressor,
        pool: BitstreamPool,
    ):
        values = np.ascontiguousarray(values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError(
                f"table {table_id}: expected (rows, dim) values, got shape {values.shape}"
            )
        if error_bound < 0:
            raise ValueError(f"table {table_id}: error_bound must be >= 0, got {error_bound}")
        check_positive("rows_per_block", rows_per_block)
        self.table_id = table_id
        self.cardinality, self.dim = values.shape
        self.rows_per_block = int(rows_per_block)
        self.error_bound = float(error_bound)
        self.codec_name = codec_name
        self._codec = codec
        self.raw_nbytes = int(values.nbytes)
        self._pool = pool
        n_blocks = -(-self.cardinality // self.rows_per_block)
        self._block_leases: list = [None] * n_blocks
        self.blocks: list = [None] * n_blocks  # pooled memoryviews, one per row block
        #: blake2b-128 of the exact float32 bytes each block was last encoded from
        self._digests: list = [None] * n_blocks
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
        for block_id, lease in self._encode_blocks(values, dirty).items():
            # Only the replaced arenas go back to the pool (to recycle on a
            # later round); an untouched block's pooled memory stays put.
            if self._block_leases[block_id] is not None:
                self._block_leases[block_id].release()
            self._block_leases[block_id] = lease
            self.blocks[block_id] = lease.view
            self._digests[block_id] = digests[block_id]
        return len(dirty)

    def _encode_blocks(self, values: np.ndarray, block_ids: list[int]) -> dict:
        """``{block_id: pooled lease}`` for the given row blocks of
        ``values`` — either every block encodes or none is kept."""
        bound = self.error_bound if self.error_bound > 0 else None
        step = self.rows_per_block
        n_full = self.cardinality // step
        # Vector-LZ is stateless and batches equal-shape inputs: the dirty
        # full-size blocks go through one compress_stack pass (payloads
        # byte-identical to the per-block calls).  The ragged tail block
        # and the keyed codecs, whose pin/codebook caches age per call,
        # take the per-block call below.
        stacked = [b for b in block_ids if b < n_full]
        if not isinstance(self._codec, VectorLZCompressor) or len(stacked) < 2:
            stacked = []
        leases: dict = {}
        try:
            if stacked:
                grid = values[: n_full * step].reshape(n_full, step, self.dim)
                first, last = stacked[0], stacked[-1]
                # a contiguous dirty run (first build, full churn) is a view
                stack = grid[first : last + 1] if last - first + 1 == len(stacked) else grid[stacked]
                for block_id, frame in zip(stacked, self._codec.compress_stack(stack, bound)):
                    leases[block_id] = self._pool.checkout_bytes(frame)
            for block_id in block_ids:
                if block_id not in leases:
                    # Keyed by table so pin/codebook caches amortize per table.
                    leases[block_id] = self._codec.compress(
                        values[block_id * step : (block_id + 1) * step],
                        bound,
                        key=self.table_id,
                        pool=self._pool,
                    )
        except BaseException:
            for lease in leases.values():
                lease.release()
            raise
        return leases

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def compressed_nbytes(self) -> int:
        return sum(len(b) for b in self.blocks)

    def pull(self, row_ids: np.ndarray) -> ShardPull:
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.ndim != 1:
            raise ValueError(f"row_ids must be 1-D, got shape {row_ids.shape}")
        step = self.rows_per_block
        if row_ids.size == 0:
            touched = []
            rows = np.empty((0, self.dim), dtype=np.float32)
        else:
            low, high = int(row_ids.min()), int(row_ids.max())
            if low < 0 or high >= self.cardinality:
                raise IndexError(
                    f"table {self.table_id}: row ids out of range [0, {self.cardinality})"
                )
            first = low // step
            if high // step == first:
                # The common request — every row in one block: no grouping pass.
                touched = [first]
                rows = decompress_any(self.blocks[first], rows=row_ids - first * step)
            else:
                rows = np.empty((row_ids.size, self.dim), dtype=np.float32)
                block_ids = row_ids // step
                touched = np.unique(block_ids).tolist()
                for block_id in touched:
                    in_block = block_ids == block_id
                    rows[in_block] = decompress_any(
                        self.blocks[block_id], rows=row_ids[in_block] - block_id * step
                    )
        return ShardPull(
            table_id=self.table_id,
            rows=rows,
            codec=self.codec_name,
            blocks_touched=len(touched),
            compressed_nbytes=sum(len(self.blocks[b]) for b in touched),
            # float32 bytes of the touched blocks' rows (the last block may be short)
            raw_nbytes=sum(min(step, self.cardinality - b * step) for b in touched) * self.dim * 4,
        )

    def decode_all(self) -> np.ndarray:
        if not self.blocks:
            return np.empty((0, self.dim), dtype=np.float32)
        return np.concatenate([decompress_any(b) for b in self.blocks], axis=0)


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
        re-encoding and of a remote shard pull (rows decode one by one).
    pool:
        :class:`~repro.compression.parallel.pool.BitstreamPool` backing
        the compressed block storage.  A publication round re-encodes the
        blocks that changed and returns exactly the arenas it replaced, so
        pooled arenas turn that churn into steady-state reuse.  Defaults to
        a private per-node pool.
    """

    def __init__(
        self,
        tables: Mapping[int, np.ndarray],
        error_bounds: Mapping[int, float] | float = 1e-2,
        codecs: Mapping[int, str] | str = "hybrid",
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
        pool: BitstreamPool | None = None,
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

        # One cached codec instance per name, shared by this node's tables
        # (keyed compression keeps their caches disjoint per table).
        pooled = serving_codec_pool()
        self.pool = pool if pool is not None else BitstreamPool()
        self._tables: dict[int, _CompressedTable] = {}
        for table_id, values in tables.items():
            table_id = int(table_id)
            bound = bound_for(table_id)
            name = codec_for(table_id) if bound > 0 else LOSSLESS_CODEC
            self._tables[table_id] = _CompressedTable(
                table_id, values, name, bound, rows_per_block, pooled(name), self.pool
            )

    @classmethod
    def from_model(
        cls,
        model,
        table_ids,
        controller=None,
        *,
        iteration: int = 0,
        error_bound: float = 1e-2,
        codec: str = "hybrid",
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
    ) -> "EmbeddingShardServer":
        """Build a shard node from a :class:`~repro.model.dlrm.DLRM`'s
        tables.  With a controller, each table uses the adaptive per-table
        codec and effective error bound at ``iteration`` — the serving tier
        inherits the dual-level adaptive configuration wholesale."""
        table_ids = [int(t) for t in table_ids]
        values = {
            t: np.ascontiguousarray(model.tables[t].weight.data, dtype=np.float32)
            for t in table_ids
        }
        if controller is not None:
            bounds = {t: controller.error_bound(t, iteration) for t in table_ids}
            names = {t: controller.compressor_name(t) for t in table_ids}
            return cls(values, bounds, names, rows_per_block)
        return cls(values, error_bound, codec, rows_per_block)

    # -------------------------------------------------------------- queries

    def table_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._tables))

    def has_table(self, table_id: int) -> bool:
        return int(table_id) in self._tables

    def _table(self, table_id: int) -> _CompressedTable:
        try:
            return self._tables[int(table_id)]
        except KeyError:
            raise KeyError(
                f"table {table_id} is not sharded here; this node owns {self.table_ids()}"
            ) from None

    def pull(self, table_id: int, row_ids: np.ndarray) -> ShardPull:
        """Row-granular read: decode the requested rows out of the blocks
        they live in; the accounting is per touched block."""
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

    def lookup_rows(self, table_id: int, row_ids: np.ndarray) -> np.ndarray:
        """The rows alone (see :meth:`pull` for the cost accounting)."""
        return self.pull(table_id, row_ids).rows

    def table_array(self, table_id: int) -> np.ndarray:
        """Full decode of one table (tests / delta application)."""
        return self._table(table_id).decode_all()

    def error_bound(self, table_id: int) -> float:
        return self._table(table_id).error_bound

    def codec(self, table_id: int) -> str:
        return self._table(table_id).codec_name

    def rows_per_block(self, table_id: int) -> int:
        return self._table(table_id).rows_per_block

    # -------------------------------------------------------------- updates

    def set_table(self, table_id: int, values: np.ndarray) -> int:
        """Replace one table's contents with the given exact values.

        "Recompress from exact values" means: every row block whose float32
        bytes differ from what it was last encoded from is encoded afresh
        from ``values`` (never decode-add-encode on the lossy storage, so
        deltas cannot compound storage error across publications); a block
        whose bytes are identical keeps its payload, which already encodes
        exactly those bytes (a re-encode would reproduce it byte for byte
        with the stateless codecs and within the bound, possibly through
        the other encoder leg, with the keyed ones).  The comparison is
        bitwise over a blake2b-128 digest per block — ``-0.0`` vs ``+0.0``
        or a different NaN payload counts as a change, and a changed block
        is missed only on a digest collision (probability 2**-128 per
        comparison).

        All-or-nothing: if any changed block is rejected (NaN, an outlier
        past the quantizer's range) the table keeps serving its previous
        blocks.  Only the replaced blocks' pool leases are released — an
        untouched block's pooled memory is left alone.  Returns the new
        compressed size."""
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

    # ----------------------------------------------------------- accounting

    def compressed_nbytes(self, table_id: int | None = None) -> int:
        if table_id is not None:
            return self._table(table_id).compressed_nbytes
        return sum(t.compressed_nbytes for t in self._tables.values())

    def raw_nbytes(self, table_id: int | None = None) -> int:
        if table_id is not None:
            return self._table(table_id).raw_nbytes
        return sum(t.raw_nbytes for t in self._tables.values())

    def compression_ratio(self) -> float:
        return self.raw_nbytes() / max(1, self.compressed_nbytes())

    def __repr__(self) -> str:
        return (
            f"EmbeddingShardServer(tables={len(self._tables)}, "
            f"ratio={self.compression_ratio():.2f}x)"
        )
