"""Ablation — does the compression win persist across cluster sizes?

The paper evaluates at up to 32 GPUs; this ablation sweeps the simulated
cluster over {8, 16, 32} ranks at a fixed global batch and checks that the
compressed pipeline keeps beating the uncompressed exchange at every
scale.

Shape targets: end-to-end speedup > 1 at every rank count; the
uncompressed per-iteration time falls with more ranks (strong scaling of
the bandwidth-bound exchange), and compression does not break that
scaling.

The **multi-node sweep** extends the Fig.-14 rank-scaling story to
heterogeneous topologies: 2x8 / 4x8 / 8x8 clusters with NVLink-class
intra-node links and an inter-node fabric axis (HDR-IB, PCIe-class, and
4:1-oversubscribed IB), trained with the compressed cross-stage-overlap
pipeline against the uncompressed baseline.  Setting
``REPRO_MULTINODE_SMOKE=1`` restricts the sweep to the smallest (2x8)
scenario for CI's perf-smoke job.

The **large-cluster sweep** drives ``repro.dist`` alone — no model, no
codec, seeded payload sizes as in ``bench_e2e``'s ``exchange_engine``
world — at 128 / 512 / 1 024 ranks and asks the critical-path analyser
which stage owns the makespan there and what halving the compression
kernels or the forward wire would buy.  It exists because the analyser
now costs milliseconds on a 50k-event ledger (1 024 ranks: ~3 s for the
whole row on a 2-CPU host, nearly all of it the exchange itself); under
``REPRO_MULTINODE_SMOKE=1`` only the 128-rank row runs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.adaptive import AdaptiveController, OfflineAnalyzer
from repro.dist import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    EventCategory,
    NetworkModel,
    Topology,
)
from repro.model import DLRM
from repro.nn.param import PRICED_ITEMSIZE
from repro.obs.critpath import TimelineDag
from repro.train import CompressionPipeline, HybridParallelTrainer
from repro.utils import format_table

from conftest import write_result

RANK_COUNTS = (8, 16, 32)
#: large enough that per-rank messages stay bandwidth-bound at 32 ranks —
#: the regime the paper's production batches run in
GLOBAL_BATCH = 4096
ITERATIONS = 3

#: (label, n_nodes, gpus_per_node) — the multi-node scenario axis
MULTINODE_SCENARIOS = (("2x8", 2, 8), ("4x8", 4, 8), ("8x8", 8, 8))
#: inter-node fabric classes swept per scenario
INTER_FABRICS = (
    ("ib-hdr", IB_HDR_LIKE),
    ("pcie", PCIE_LIKE),
    ("ib-oversub-4x", IB_HDR_LIKE.oversubscribed(4.0)),
)
#: weak scaling: fixed per-rank sub-batch (production DLRM grows the
#: global batch with the cluster), keeping messages bandwidth-bound at
#: every scale — global batch = 256 * n_ranks
MULTINODE_LOCAL_BATCH = 256
MULTINODE_ITERATIONS = 2

#: (label, n_nodes, gpus_per_node) — the dist-only large-cluster axis
LARGE_CLUSTERS = (("16x8", 16, 8), ("64x8", 64, 8), ("128x8", 128, 8))
LARGE_CLUSTER_ROUNDS = 2
LARGE_CLUSTER_CHUNKS = 8
LARGE_CLUSTER_SEED = 100


def test_ablation_rank_scaling(kaggle_world, benchmark):
    plan = OfflineAnalyzer().analyze(kaggle_world.samples)

    rows = []
    per_iteration: dict[tuple[int, bool], float] = {}
    for n_ranks in RANK_COUNTS:
        for compressed in (False, True):
            simulator = ClusterSimulator(n_ranks)
            pipeline = (
                CompressionPipeline(AdaptiveController(plan)) if compressed else None
            )
            trainer = HybridParallelTrainer(
                DLRM(kaggle_world.config),
                kaggle_world.dataset,
                simulator,
                pipeline=pipeline,
                lr=0.2,
            )
            report = trainer.train(ITERATIONS, GLOBAL_BATCH)
            per_iteration[(n_ranks, compressed)] = report.iteration_seconds
        speedup = per_iteration[(n_ranks, False)] / per_iteration[(n_ranks, True)]
        rows.append(
            (
                n_ranks,
                f"{per_iteration[(n_ranks, False)] * 1e3:.3f} ms",
                f"{per_iteration[(n_ranks, True)] * 1e3:.3f} ms",
                f"{speedup:.2f}x",
            )
        )
    text = format_table(
        ["ranks", "baseline iter time", "compressed iter time", "e2e speedup"],
        rows,
        title=f"Ablation - scaling over cluster size (global batch {GLOBAL_BATCH})",
    )
    write_result("ablation_rank_scaling", text)

    for n_ranks in RANK_COUNTS:
        speedup = per_iteration[(n_ranks, False)] / per_iteration[(n_ranks, True)]
        assert speedup > 1.0, f"{n_ranks} ranks: {speedup:.2f}"
    # Strong scaling of the baseline: more ranks, less time per iteration.
    base_series = [per_iteration[(n, False)] for n in RANK_COUNTS]
    assert base_series == sorted(base_series, reverse=True)

    simulator = ClusterSimulator(8)
    trainer = HybridParallelTrainer(
        DLRM(kaggle_world.config), kaggle_world.dataset, simulator, lr=0.2
    )
    benchmark.pedantic(lambda: trainer.train_step(GLOBAL_BATCH, 0), rounds=3, iterations=1)


def _multinode_run(world, plan, n_nodes, gpus, inter, *, compressed):
    network = NetworkModel.from_topology(
        Topology.hierarchical(n_nodes, gpus, NVLINK_LIKE, inter)
    )
    simulator = ClusterSimulator(n_nodes * gpus, network=network)
    trainer = HybridParallelTrainer(
        DLRM(world.config),
        world.dataset,
        simulator,
        pipeline=CompressionPipeline(AdaptiveController(plan)) if compressed else None,
        lr=0.2,
        overlap="cross_stage" if compressed else False,
        allreduce_algorithm="hierarchical",
    )
    return trainer.train(MULTINODE_ITERATIONS, MULTINODE_LOCAL_BATCH * n_nodes * gpus)


def test_ablation_multinode_scaling(kaggle_world, benchmark):
    plan = OfflineAnalyzer().analyze(kaggle_world.samples)
    smoke = bool(os.environ.get("REPRO_MULTINODE_SMOKE"))
    scenarios = MULTINODE_SCENARIOS[:1] if smoke else MULTINODE_SCENARIOS

    rows = []
    speedups: dict[tuple[str, str], float] = {}
    base_iters: dict[tuple[str, str], float] = {}
    for label, n_nodes, gpus in scenarios:
        for fabric_label, inter in INTER_FABRICS:
            base = _multinode_run(
                kaggle_world, plan, n_nodes, gpus, inter, compressed=False
            )
            comp = _multinode_run(
                kaggle_world, plan, n_nodes, gpus, inter, compressed=True
            )
            key = (label, fabric_label)
            speedups[key] = base.iteration_seconds / comp.iteration_seconds
            base_iters[key] = base.iteration_seconds
            rows.append(
                (
                    label,
                    f"nvlink + {fabric_label}",
                    f"{base.iteration_seconds * 1e3:.3f} ms",
                    f"{comp.iteration_seconds * 1e3:.3f} ms",
                    f"{speedups[key]:.2f}x",
                    f"{comp.forward_compression_ratio:.1f}x",
                )
            )
    text = format_table(
        ["cluster", "fabric", "baseline iter", "compressed+cross-stage iter", "speedup", "fwd CR"],
        rows,
        title=(
            "Ablation - multi-node weak scaling on heterogeneous fabrics "
            f"(batch {MULTINODE_LOCAL_BATCH}/rank"
            + (", smoke: 2x8 only)" if smoke else ")")
        ),
    )
    write_result("ablation_multinode_scaling", text)

    # The compressed cross-stage pipeline wins on every scenario/fabric.
    for key, speedup in speedups.items():
        assert speedup > 1.0, f"{key}: {speedup:.2f}"
    for label, _, _ in scenarios:
        # A 4:1-oversubscribed inter fabric is never faster than full-rate
        # IB for the uncompressed baseline...
        assert base_iters[(label, "ib-oversub-4x")] >= base_iters[(label, "ib-hdr")]
        # ...and the thinner the wire, the more compression pays.
        assert speedups[(label, "ib-oversub-4x")] >= speedups[(label, "ib-hdr")]

    bench_inter = INTER_FABRICS[0][1]
    benchmark.pedantic(
        lambda: _multinode_run(
            kaggle_world, plan, 2, 8, bench_inter, compressed=True
        ),
        rounds=1,
        iterations=1,
    )


def _allreduce_run(world, plan, n_nodes, gpus, inter, *, codec, algorithm):
    """One multi-node training run with the dense all-reduce either left
    dense (``codec=None``) or routed through a homomorphic codec.  The
    embedding pipeline is identical on both sides, so any delta is the
    dense-gradient collective."""
    from repro.obs.runtime import capture

    topology = Topology.hierarchical(n_nodes, gpus, NVLINK_LIKE, inter)
    simulator = ClusterSimulator(
        n_nodes * gpus, network=NetworkModel.from_topology(topology)
    )
    trainer = HybridParallelTrainer(
        DLRM(world.config),
        world.dataset,
        simulator,
        pipeline=CompressionPipeline(AdaptiveController(plan)),
        lr=0.2,
        overlap="cross_stage",
        allreduce_algorithm=algorithm,
        allreduce_codec=codec,
    )
    with capture() as registry:
        report = trainer.train(
            MULTINODE_ITERATIONS, MULTINODE_LOCAL_BATCH * n_nodes * gpus
        )
    return report, topology, registry.snapshot()


def test_ablation_homomorphic_allreduce(kaggle_world, benchmark):
    """Homomorphic (in-network aggregated) dense all-reduce vs the dense
    hierarchical baseline across multi-node fabrics: iteration time and
    inter-node wire bytes.  Under ``REPRO_MULTINODE_SMOKE=1`` only the
    4x8 oversubscribed-IB row runs — the strictly-fewer-inter-node-bytes
    assertion CI's perf-smoke job pins."""
    plan = OfflineAnalyzer().analyze(kaggle_world.samples)
    smoke = bool(os.environ.get("REPRO_MULTINODE_SMOKE"))
    scenarios = (("4x8", 4, 8),) if smoke else MULTINODE_SCENARIOS
    fabrics = (
        (INTER_FABRICS[2],) if smoke else INTER_FABRICS
    )  # smoke: ib-oversub-4x only
    dense_nbytes = PRICED_ITEMSIZE * sum(
        p.data.size for p in DLRM(kaggle_world.config).mlp_parameters()
    )

    rows = []
    speedups: dict[tuple[str, str], float] = {}
    for label, n_nodes, gpus in scenarios:
        n = n_nodes * gpus
        for fabric_label, inter in fabrics:
            dense, topo, _ = _allreduce_run(
                kaggle_world, plan, n_nodes, gpus, inter,
                codec=None, algorithm="hierarchical",
            )
            # The gradient payload is bandwidth-bound, so the homomorphic
            # run rides the *same* hierarchical schedule — the win is
            # compressed bytes on every hop (switch aggregation wins the
            # latency-bound regime; the dist law tests pin that case).
            homo, _, snap = _allreduce_run(
                kaggle_world, plan, n_nodes, gpus, inter,
                codec="quant_sum", algorithm="hierarchical",
            )
            leaf_nbytes = int(
                snap.counter_value(
                    "comm_homomorphic_aggregated_bytes_total",
                    codec="quant_sum",
                    algorithm="hierarchical",
                )
                / (n * MULTINODE_ITERATIONS)
            )
            dense_inter = topo.all_reduce_inter_bytes(dense_nbytes, "hierarchical")
            homo_inter = topo.all_reduce_inter_bytes(leaf_nbytes, "hierarchical")
            key = (label, fabric_label)
            speedups[key] = dense.iteration_seconds / homo.iteration_seconds
            rows.append(
                (
                    label,
                    f"nvlink + {fabric_label}",
                    f"{dense.iteration_seconds * 1e3:.3f} ms",
                    f"{homo.iteration_seconds * 1e3:.3f} ms",
                    f"{speedups[key]:.2f}x",
                    f"{dense_inter / 1e6:.2f} MB",
                    f"{homo_inter / 1e6:.2f} MB",
                )
            )
            # The aggregated collective ships strictly fewer inter-node
            # bytes than the dense hierarchical all-reduce — on every
            # fabric, and in particular on 4x8 oversubscribed IB (the
            # CI smoke row).
            assert homo_inter < dense_inter, f"{key}: {homo_inter} >= {dense_inter}"
    text = format_table(
        [
            "cluster", "fabric", "dense allreduce iter", "homomorphic iter",
            "speedup", "dense inter-node", "homomorphic inter-node",
        ],
        rows,
        title=(
            "Ablation - homomorphic in-network all-reduce vs dense hierarchical "
            + ("(smoke: 4x8 ib-oversub-4x only)" if smoke else "(quant_sum, eb=1e-3)")
        ),
    )
    write_result("ablation_homomorphic_allreduce", text)

    # The homomorphic all-reduce beats the dense baseline end to end on
    # every multi-node fabric row (acceptance needs >= 1).
    for key, speedup in speedups.items():
        assert speedup > 1.0, f"{key}: {speedup:.2f}"

    bench_inter = INTER_FABRICS[2][1]
    benchmark.pedantic(
        lambda: _allreduce_run(
            kaggle_world, plan, 2, 8, bench_inter,
            codec="quant_sum", algorithm="switch",
        ),
        rounds=1,
        iterations=1,
    )


def _large_cluster_exchange(n_nodes: int, gpus: int) -> ClusterSimulator:
    """``LARGE_CLUSTER_ROUNDS`` rounds of a chunk-pipelined exchange plus a
    hierarchical 1 MiB all-reduce on NVLink + 4:1-oversubscribed IB — the
    ``exchange_engine`` world's recipe with one payload per ordered pair
    (seeded 64-2048 B, drawn from a shared pool so 1 024 ranks stay small
    in memory) and seeded per-rank codec times."""
    n = n_nodes * gpus
    rng = np.random.default_rng(LARGE_CLUSTER_SEED)
    blob = bytes(2048)
    pool = [blob[:size] for size in range(2049)]
    sendbufs = [[pool[size] for size in row] for row in rng.integers(64, 2049, size=(n, n)).tolist()]
    compress = rng.uniform(20e-6, 200e-6, size=n).tolist()
    decompress = rng.uniform(20e-6, 200e-6, size=n).tolist()
    topology = Topology.hierarchical(n_nodes, gpus, NVLINK_LIKE, IB_HDR_LIKE.oversubscribed(4.0))
    sim = ClusterSimulator(n, network=NetworkModel.from_topology(topology))
    for _ in range(LARGE_CLUSTER_ROUNDS):
        sim.comm.compressed_all_to_all(
            sendbufs,
            overlap=True,
            chunks_per_rank=LARGE_CLUSTER_CHUNKS,
            compress_seconds=compress,
            decompress_seconds=decompress,
        )
        sim.comm.all_reduce_bytes(1 << 20, algorithm="hierarchical")
    return sim


def test_ablation_large_cluster_exchange(benchmark):
    """Who owns the exchange makespan at 128 / 512 / 1 024 ranks, and what
    would a 2x faster compression kernel or forward wire buy?"""
    smoke = bool(os.environ.get("REPRO_MULTINODE_SMOKE"))
    clusters = LARGE_CLUSTERS[:1] if smoke else LARGE_CLUSTERS
    stages = (
        EventCategory.COMPRESS,
        EventCategory.METADATA,
        EventCategory.ALLTOALL_FWD,
        EventCategory.DECOMPRESS,
        EventCategory.ALLREDUCE,
    )

    rows = []
    makespans: list[float] = []
    for label, n_nodes, gpus in clusters:
        began = time.perf_counter()
        sim = _large_cluster_exchange(n_nodes, gpus)
        exchanged = time.perf_counter()
        dag = TimelineDag.from_timeline(sim.timeline)
        path = dag.critical_path()
        kernel = dag.speedup_if(EventCategory.COMPRESS, 2.0)
        wire = dag.speedup_if(EventCategory.ALLTOALL_FWD, 2.0)
        analysed = time.perf_counter()

        makespan = sim.makespan()
        makespans.append(makespan)
        shares = path.by_category()
        assert path.makespan == makespan
        assert sum(shares.values()) == pytest.approx(makespan, rel=1e-9)
        # The wire (payload + metadata round) owns these worlds: halving it
        # pays, halving the compression kernels barely registers.
        assert 1.0 <= kernel.speedup <= wire.speedup
        assert shares[EventCategory.ALLTOALL_FWD] == max(shares.values())
        rows.append(
            (
                label,
                len(sim.timeline),
                f"{makespan * 1e3:.3f} ms",
                *(f"{100.0 * shares.get(stage, 0.0) / makespan:.1f}%" for stage in stages),
                f"{kernel.speedup:.3f}x",
                f"{wire.speedup:.3f}x",
                f"{exchanged - began:.2f} s",
                f"{analysed - exchanged:.2f} s",
            )
        )
    text = format_table(
        [
            "cluster", "events", "sim makespan",
            *(f"{stage} share" for stage in stages),
            "compress 2x faster", "fwd wire 2x faster", "exchange wall", "analysis wall",
        ],
        rows,
        title=(
            f"Ablation - dist-only exchange at scale ({LARGE_CLUSTER_ROUNDS} rounds, "
            f"{LARGE_CLUSTER_CHUNKS} chunks, nvlink + ib-oversub-4x"
            + (", smoke: 16x8 only)" if smoke else ")")
        ),
    )
    write_result("ablation_large_cluster_exchange", text)

    # More ranks on the same oversubscribed fabric: a longer exchange.
    assert makespans == sorted(makespans)

    sim = _large_cluster_exchange(16, 8)
    benchmark.pedantic(
        lambda: TimelineDag.from_timeline(sim.timeline).speedup_if(EventCategory.COMPRESS, 2.0),
        rounds=3,
        iterations=1,
    )
