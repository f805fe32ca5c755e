"""Online inference-serving tier with compressed delta publication.

The training side of this repository compresses the embedding exchange;
this package puts the same dual-level adaptive compression on the *read*
side, where DLRM embeddings serve live traffic:

* :class:`EmbeddingShardServer` — per-table embedding shards stored in
  compressed row blocks (training-tier codecs, each block decoded once
  per payload).
* :class:`InferenceReplica` — serving nodes with a hot-row LRU cache that
  exploits the synthetic data's Zipf query skew.
* :class:`RequestLoadGenerator` — open-loop Poisson arrivals of
  Criteo-shaped multi-table lookups at a configured QPS.
* :class:`ServingSimulator` — discrete-event pricing of lookup fan-out,
  cache misses, and shard-pull latency over the training tier's
  :class:`~repro.dist.network.Topology` fabrics.
* :class:`DeltaPublisher` — ships per-table *compressed* embedding deltas
  from :class:`~repro.train.hybrid.HybridParallelTrainer` snapshots to the
  shard tier through the :class:`~repro.dist.comm.Communicator`, with an
  error-feedback staleness bound from the adaptive controller's per-table
  error bounds.

Layering: ``serve`` sits above ``compression``/``dist``/``train`` and is
imported by nothing below it.
"""

from repro.serve.loadgen import Request, RequestLoadGenerator
from repro.serve.publisher import (
    DeltaPublisher,
    PublicationReport,
    ServingTier,
    TableDelta,
    build_serving_tier,
)
from repro.serve.replica import GatherResult, InferenceReplica
from repro.serve.shard_server import (
    DEFAULT_ROWS_PER_BLOCK,
    EmbeddingShardServer,
    ShardPull,
)
from repro.serve.simulator import ServingReport, ServingSimulator

__all__ = [
    "DEFAULT_ROWS_PER_BLOCK",
    "DeltaPublisher",
    "EmbeddingShardServer",
    "GatherResult",
    "InferenceReplica",
    "PublicationReport",
    "Request",
    "RequestLoadGenerator",
    "ServingReport",
    "ServingSimulator",
    "ServingTier",
    "ShardPull",
    "TableDelta",
    "build_serving_tier",
]
