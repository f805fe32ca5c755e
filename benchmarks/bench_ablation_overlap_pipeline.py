"""Ablation — overlapping compression with transmission (paper future work).

The paper's conclusion proposes integrating (de)compression with the
communication library (NCCL) so that compression of chunk ``i+1`` overlaps
the transmission of chunk ``i``.  This ablation prices that design twice:

* chunk-level, with the communicator's chunk pipeline streaming one
  rank's compressed chunks to a peer across network bandwidths — the
  overlap win peaks where per-chunk compression balances per-chunk wire
  time, and vanishes when either stage dominates;
* end-to-end, by running the full hybrid-parallel trainer on the paper's
  8-rank configuration with the communicator's ``overlap=True`` streams,
  on the flat paper fabric and on a heterogeneous NVLink+IB topology with
  flat-vs-hierarchical dense all-reduce.

Shape targets: the overlapped pipeline never loses; its chunk-level
speedup peaks above 1.3x near the balance point; end-to-end, overlap-on
beats overlap-off on every fabric, and the hierarchical all-reduce beats
the flat ring on the heterogeneous topology.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.dist import ClusterSimulator, NetworkModel, Topology
from repro.model import DLRM, DLRMConfig
from repro.profiling import overlap_efficiency
from repro.train import CompressionPipeline, HybridParallelTrainer
from repro.utils import GB, MB, format_table

from conftest import write_result

N_CHUNKS = 32
CHUNK_BYTES = int(1 * MB)
COMPRESSION_RATIO = 18.0  # typical hybrid CR on the Kaggle world
CHUNKS = [("vector_lz", CHUNK_BYTES)] * N_CHUNKS
BANDWIDTHS_GB = (16.0, 4.0, 1.0, 0.25)


def _chunk_exchange_makespan(pipeline, bandwidth_gb, *, overlap):
    """Simulated makespan of rank 0 streaming ``N_CHUNKS`` compressed
    chunks to rank 1 through the communicator's chunk pipeline."""
    sim = ClusterSimulator(2, network=NetworkModel(bandwidth=bandwidth_gb * GB))
    payload = bytes(int(CHUNK_BYTES / COMPRESSION_RATIO))
    sim.comm.compressed_all_to_all(
        [[[], [payload] * N_CHUNKS], [[], []]],
        entries_per_pair=np.zeros((2, 2), dtype=np.int64),
        overlap=overlap,
        compress_seconds=[pipeline.compression_seconds(CHUNKS), 0.0],
        chunks_per_rank=[N_CHUNKS, 1],
    )
    return sim.makespan()


def test_ablation_overlap_pipeline(kaggle_world, benchmark):
    plan = OfflineAnalyzer().analyze(kaggle_world.samples)
    pipeline = CompressionPipeline(AdaptiveController(plan), fused_kernels=False)

    rows = []
    speedups = {}
    makespans = {}
    for bandwidth_gb in BANDWIDTHS_GB:
        sequential = _chunk_exchange_makespan(pipeline, bandwidth_gb, overlap=False)
        overlapped = _chunk_exchange_makespan(pipeline, bandwidth_gb, overlap=True)
        makespans[bandwidth_gb] = (sequential, overlapped)
        speedups[bandwidth_gb] = sequential / overlapped
        rows.append(
            (
                f"{bandwidth_gb} GB/s",
                f"{sequential * 1e6:.1f} us",
                f"{overlapped * 1e6:.1f} us",
                f"{sequential / overlapped:.2f}x",
            )
        )
    text = format_table(
        ["wire bandwidth", "compress-then-send", "overlapped pipeline", "speedup"],
        rows,
        title=(
            "Ablation - NCCL-style compression/transmission overlap "
            f"({N_CHUNKS} chunks x {CHUNK_BYTES // MB} MiB, CR {COMPRESSION_RATIO})"
        ),
    )
    write_result("ablation_overlap_pipeline", text)

    # Overlap never loses, at any bandwidth.
    assert all(s >= 1.0 - 1e-12 for s in speedups.values())
    # The win is material somewhere in the sweep (near compress == wire)...
    assert max(speedups.values()) > 1.3
    # ...and fades toward either extreme.
    extremes = (speedups[BANDWIDTHS_GB[0]], speedups[BANDWIDTHS_GB[-1]])
    assert min(extremes) < max(speedups.values())
    # Overlapped makespan is bounded below by the wire stage alone.
    slow_seq, slow_overlap = makespans[BANDWIDTHS_GB[-1]]
    assert slow_overlap >= N_CHUNKS * CHUNK_BYTES / COMPRESSION_RATIO / (0.25 * GB)
    assert slow_overlap <= slow_seq

    benchmark(lambda: _chunk_exchange_makespan(pipeline, 4.0, overlap=True))


# --- end-to-end: the communicator's overlap streams on the 8-rank config ---

N_RANKS = 8
E2E_ITERATIONS = 3
E2E_BATCH = 1024


def _train(kaggle_world, plan, *, overlap, network=None, allreduce="ring"):
    config = DLRMConfig.from_dataset(
        kaggle_world.spec,
        embedding_dim=32,
        bottom_hidden=(64, 32),
        top_hidden=(64, 32),
        seed=7,
    )
    sim = ClusterSimulator(N_RANKS, network=network)
    trainer = HybridParallelTrainer(
        DLRM(config),
        kaggle_world.dataset,
        sim,
        pipeline=CompressionPipeline(AdaptiveController(plan)),
        lr=0.2,
        overlap=overlap,
        allreduce_algorithm=allreduce,
    )
    trainer.train(E2E_ITERATIONS, E2E_BATCH)
    return sim


def test_ablation_overlap_end_to_end(kaggle_world, benchmark):
    plan = OfflineAnalyzer().analyze(kaggle_world.samples)
    hetero = NetworkModel.from_topology(Topology.hierarchical(2, N_RANKS // 2))
    scenarios = {
        ("paper-flat", False): _train(kaggle_world, plan, overlap=False),
        ("paper-flat", True): _train(kaggle_world, plan, overlap=True),
        ("nvlink+ib", False): _train(kaggle_world, plan, overlap=False, network=hetero),
        ("nvlink+ib", True): _train(kaggle_world, plan, overlap=True, network=hetero),
        ("nvlink+ib hier-AR", False): _train(
            kaggle_world, plan, overlap=False, network=hetero, allreduce="hierarchical"
        ),
        ("nvlink+ib hier-AR", True): _train(
            kaggle_world, plan, overlap=True, network=hetero, allreduce="hierarchical"
        ),
    }
    rows = []
    for fabric in ("paper-flat", "nvlink+ib", "nvlink+ib hier-AR"):
        sequential = scenarios[(fabric, False)]
        overlapped = scenarios[(fabric, True)]
        rows.append(
            (
                fabric,
                f"{sequential.makespan() * 1e3:.3f} ms",
                f"{overlapped.makespan() * 1e3:.3f} ms",
                f"{sequential.makespan() / overlapped.makespan():.3f}x",
                f"{overlap_efficiency(overlapped.timeline) * 100:.1f}%",
            )
        )
    text = format_table(
        ["fabric", "overlap off", "overlap on", "speedup", "wire hidden"],
        rows,
        title=(
            "Ablation - end-to-end stream overlap "
            f"({N_RANKS} ranks, {E2E_ITERATIONS} iterations, batch {E2E_BATCH})"
        ),
    )
    write_result("ablation_overlap_end_to_end", text)

    # Acceptance: overlap-on strictly beats overlap-off on the paper's
    # 8-rank configuration, and never loses on any fabric.
    for fabric in ("paper-flat", "nvlink+ib", "nvlink+ib hier-AR"):
        sequential = scenarios[(fabric, False)].makespan()
        overlapped = scenarios[(fabric, True)].makespan()
        assert overlapped <= sequential + 1e-12, fabric
    assert scenarios[("paper-flat", True)].makespan() < scenarios[("paper-flat", False)].makespan()
    # The overlapped runs actually double-book streams.
    assert overlap_efficiency(scenarios[("paper-flat", True)].timeline) > 0.0
    # The hierarchical all-reduce beats the flat ring on the hetero fabric.
    flat_ar = scenarios[("nvlink+ib", False)].timeline.total_by_category(rank=0)["allreduce"]
    hier_ar = scenarios[("nvlink+ib hier-AR", False)].timeline.total_by_category(rank=0)["allreduce"]
    assert hier_ar < flat_ar

    benchmark(lambda: overlap_efficiency(scenarios[("paper-flat", True)].timeline))
