"""Inference replicas: hot-row LRU caches in front of compressed shards.

A :class:`InferenceReplica` is one stateless-model serving node: it holds
the (replicated, tiny) MLP weights implicitly and caches *decoded
embedding rows* in an LRU keyed by ``(table_id, row_id)``.  The synthetic
data's Zipf-skewed queries concentrate mass on few rows per table, so a
cache of a small fraction of the total rows absorbs most lookups — misses
fan out as row-granular pulls from the owning
:class:`~repro.serve.shard_server.EmbeddingShardServer`.

The cache is a strict LRU over requested rows only (no block prefetch), so
it inherits the classic stack-algorithm inclusion property: for the same
request trace a larger cache's contents are always a superset of a smaller
cache's, hence the hit rate is monotone non-decreasing in capacity — the
invariant the serving tests pin.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.obs.runtime import OBS
from repro.serve.shard_server import EmbeddingShardServer, ShardPull
from repro.train.sharding import ShardingPlan

__all__ = ["GatherResult", "InferenceReplica"]


@dataclass(frozen=True)
class GatherResult:
    """One request's embedding gather: rows + the cost of getting them.

    ``hits + misses`` is always the table count.  ``pulls`` / ``pull_ranks``
    / ``fanout`` cover *delivered* pulls only; a missed row whose pull was
    not delivered is in ``rows`` as its stale copy or as zeros and is
    counted in ``stale_rows`` / ``degraded_rows`` (both 0 when everything
    is delivered).
    """

    rows: np.ndarray  # (n_tables, dim) float32
    hits: int
    misses: int
    pulls: tuple[ShardPull, ...] = ()
    #: shard rank each pull went to, aligned with ``pulls``
    pull_ranks: tuple[int, ...] = field(default=())
    stale_rows: int = 0  # undelivered, answered from the stale store
    degraded_rows: int = 0  # undelivered, answered as zeros

    @property
    def fanout(self) -> int:
        """Distinct shard nodes this request had to contact."""
        return len(set(self.pull_ranks))


class InferenceReplica:
    """One serving replica: LRU row cache over sharded compressed tables.

    Parameters
    ----------
    replica_id:
        Stable identity (used for request routing and reporting).
    servers:
        One :class:`EmbeddingShardServer` per shard rank; ``sharding``
        maps each table to the server that owns it.
    sharding:
        Table-to-shard-rank assignment (the serving tier reuses the
        training tier's :class:`ShardingPlan`).
    cache_rows:
        Hot-row LRU capacity in rows; ``0`` disables caching (every
        lookup is a shard pull).
    keep_stale:
        Keep rows evicted by :meth:`invalidate_tables` in a bounded
        *stale store* (same capacity as the cache) instead of dropping
        them.  When a shard pull cannot complete — crashed shard, severed
        link, exhausted retries — :meth:`gather` answers with the stale
        copy and counts the row as *stale* (bounded-staleness: the row is
        exactly what the tier served before the publication that displaced
        it), rather than degrading to a zero row.
    """

    def __init__(
        self,
        replica_id: int,
        servers: Sequence[EmbeddingShardServer],
        sharding: ShardingPlan,
        cache_rows: int = 4096,
        *,
        keep_stale: bool = False,
    ):
        if cache_rows < 0:
            raise ValueError(f"cache_rows must be >= 0, got {cache_rows}")
        if sharding.n_ranks != len(servers):
            raise ValueError(
                f"sharding spans {sharding.n_ranks} shard ranks but {len(servers)} "
                "servers were given"
            )
        for rank, server in enumerate(servers):
            owned = set(sharding.tables_of(rank))
            missing = owned - set(server.table_ids())
            if missing:
                raise ValueError(
                    f"shard rank {rank} is missing tables {sorted(missing)}"
                )
        self.replica_id = int(replica_id)
        self.servers = tuple(servers)
        # gather writes into one (n_tables, dim) array; a DLRM's tables
        # share one embedding dim
        self._dim = servers[sharding.owner_of(0)].dim(0)
        self.sharding = sharding
        self.cache_rows = int(cache_rows)
        self.keep_stale = bool(keep_stale)
        self._cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._stale: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # --------------------------------------------------------------- cache

    def _cache_put(self, key: tuple[int, int], row: np.ndarray) -> None:
        if self.cache_rows == 0:
            return
        if key in self._cache:
            self._cache.move_to_end(key)
        self._cache[key] = row
        while len(self._cache) > self.cache_rows:
            self._cache.popitem(last=False)

    def invalidate_tables(self, table_ids) -> int:
        """Drop cached rows of the given tables (delta publication made
        them stale); returns the number of rows dropped.

        With ``keep_stale``, displaced rows move into the bounded stale
        store (newest-first eviction at ``cache_rows`` capacity) so
        degraded serving can still answer from a known-bounded past state.
        """
        table_ids = set(int(t) for t in table_ids)
        stale = [key for key in self._cache if key[0] in table_ids]
        for key in stale:
            row = self._cache.pop(key)
            if self.keep_stale and self.cache_rows:
                if key in self._stale:
                    self._stale.move_to_end(key)
                self._stale[key] = row
                while len(self._stale) > self.cache_rows:
                    self._stale.popitem(last=False)
        return len(stale)

    def stale_lookup(self, table_id: int, row_id: int) -> np.ndarray | None:
        """A displaced row from the stale store, if one is held (the copy
        the tier served before the publication that invalidated it)."""
        return self._stale.get((int(table_id), int(row_id)))

    # -------------------------------------------------------------- lookups

    def gather(self, sparse: np.ndarray, deliver=None) -> GatherResult:
        """Gather one request's embedding rows (one id per table).

        The one gather, healthy or not.  Cache hits are served locally;
        each missed table becomes one real single-row pull from its
        owning shard node, issued in table order (the pull always runs —
        its byte sizes are what the caller prices — but its data is used
        only if delivered).  ``deliver(shard_rank, pulls) -> bool`` is then
        asked once per contacted shard, in ascending rank order, whether
        that shard's pull group reached the replica; ``None`` means
        everything is delivered.  Delivered rows are returned and admitted
        to the LRU in table order; undelivered rows are answered from the
        stale store if it holds them, otherwise as zeros, are never
        admitted, and are counted (``stale_rows`` / ``degraded_rows``).

        One pass over the ids: a hit is a dict lookup plus a move to the
        LRU's end, and every row is written straight into the one
        ``(n_tables, dim)`` result array.
        """
        sparse = np.asarray(sparse, dtype=np.int64)
        owners = self.sharding.owners
        if sparse.ndim != 1 or sparse.size != len(owners):
            raise ValueError(
                f"expected ({len(owners)},) ids (one per table), "
                f"got shape {sparse.shape}"
            )
        rows = np.empty((sparse.size, self._dim), dtype=np.float32)
        cache = self._cache
        missing: list[tuple[tuple[int, int], int, ShardPull]] = []  # (cache key, shard, pull)
        by_shard: dict[int, list[ShardPull]] = {}
        hits = 0
        for table_id, row_id in enumerate(sparse.tolist()):
            key = (table_id, row_id)
            row = cache.get(key)
            if row is not None:
                cache.move_to_end(key)
                rows[table_id] = row
                hits += 1
                continue
            shard_rank = owners[table_id]
            pull = self.servers[shard_rank].pull(table_id, sparse[table_id : table_id + 1])
            missing.append((key, shard_rank, pull))
            by_shard.setdefault(shard_rank, []).append(pull)
        delivered = {
            shard_rank: deliver is None or deliver(shard_rank, by_shard[shard_rank])
            for shard_rank in sorted(by_shard)
        }
        pulls: list[ShardPull] = []
        pull_ranks: list[int] = []
        stale_rows = degraded_rows = 0
        for key, shard_rank, pull in missing:
            table_id = key[0]
            if delivered[shard_rank]:
                pulls.append(pull)
                pull_ranks.append(shard_rank)
                row = pull.rows[0]
                rows[table_id] = row
                self._cache_put(key, row)
                continue
            row = self.stale_lookup(*key)
            if row is not None:
                rows[table_id] = row
                stale_rows += 1
            else:  # partial fan-out: the row is zeros, and counted
                rows[table_id] = 0.0
                degraded_rows += 1
        misses = len(missing)
        self.hits += hits
        self.misses += misses
        if OBS.enabled:
            reg = OBS.registry
            replica = str(self.replica_id)
            if hits:
                reg.counter(
                    "serve_cache_hits_total", "row-cache hits across gathers"
                ).inc(hits, replica=replica)
            if misses:
                reg.counter(
                    "serve_cache_misses_total", "row-cache misses (shard pulls)"
                ).inc(misses, replica=replica)
        return GatherResult(
            rows=rows,
            hits=hits,
            misses=misses,
            pulls=tuple(pulls),
            pull_ranks=tuple(pull_ranks),
            stale_rows=stale_rows,
            degraded_rows=degraded_rows,
        )

    def __repr__(self) -> str:
        return (
            f"InferenceReplica(id={self.replica_id}, cache={len(self._cache)}/"
            f"{self.cache_rows} rows, hits={self.hits}, misses={self.misses})"
        )
