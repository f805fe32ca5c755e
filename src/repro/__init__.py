"""repro: reproduction of "Accelerating Communication in DLRM Training with
Dual-Level Adaptive Lossy Compression" (SC '24).

Public API tour:

* :mod:`repro.compression` — the hybrid error-bounded compressor (vector-LZ
  + optimized Huffman) and all baselines.
* :mod:`repro.adaptive` — Homogenization Index, table classification, decay
  schedules, offline analysis (Algorithms 1-2) and the online controller.
* :mod:`repro.data` — synthetic Criteo-like datasets.
* :mod:`repro.model` / :mod:`repro.nn` — NumPy DLRM.
* :mod:`repro.dist` — cluster/network/GPU simulation substrate.
* :mod:`repro.train` — reference and hybrid-parallel trainers with the
  4-stage compressed all-to-all pipeline.
* :mod:`repro.serve` — inference-serving tier: compressed embedding
  shards, hot-row replica caches, open-loop load, and compressed delta
  publication from the trainer.
* :mod:`repro.analysis` / :mod:`repro.profiling` — data-feature analysis
  and training-time breakdowns.
* :mod:`repro.obs` — unified observability: metrics registry with
  immutable snapshots, ``OBS_STREAM`` annotations on the simulation
  timeline, unified chrome traces, and JSON/Prometheus/report exporters.
"""

__version__ = "1.0.0"

from repro.adaptive import (
    AdaptiveController,
    ErrorBoundLevels,
    OfflineAnalyzer,
    StepwiseDecay,
    homogenization_index,
)
from repro.compression import HybridCompressor, get_compressor
from repro.data import CRITEO_KAGGLE, CRITEO_TERABYTE, SyntheticClickDataset, scaled_spec
from repro.dist import ClusterSimulator
from repro.model import DLRM, DLRMConfig
from repro.obs import MetricsRegistry
from repro.serve import (
    DeltaPublisher,
    EmbeddingShardServer,
    InferenceReplica,
    RequestLoadGenerator,
    ServingSimulator,
    build_serving_tier,
)
from repro.train import CompressionPipeline, HybridParallelTrainer, ReferenceTrainer

__all__ = [
    "__version__",
    "HybridCompressor",
    "get_compressor",
    "homogenization_index",
    "ErrorBoundLevels",
    "StepwiseDecay",
    "OfflineAnalyzer",
    "AdaptiveController",
    "SyntheticClickDataset",
    "CRITEO_KAGGLE",
    "CRITEO_TERABYTE",
    "scaled_spec",
    "DLRM",
    "DLRMConfig",
    "ClusterSimulator",
    "ReferenceTrainer",
    "HybridParallelTrainer",
    "CompressionPipeline",
    "EmbeddingShardServer",
    "InferenceReplica",
    "RequestLoadGenerator",
    "ServingSimulator",
    "DeltaPublisher",
    "build_serving_tier",
    "MetricsRegistry",
]
