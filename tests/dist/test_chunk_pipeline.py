"""Property-test harness for the chunk-level pipelined exchange.

The chunked wire model replaces PR 3's analytic first/last-chunk
correction with k real chunk events per rank.  These tests pin its timing
laws over randomized fabrics (flat alpha-beta and heterogeneous
NVLink/PCIe/IB topologies, including oversubscribed inter links):

* the chunked makespan never exceeds the sequential layout,
* it never exceeds the k=1 analytic model (``max(compress) + metadata +
  payload + max(decompress)``),
* it is monotone non-increasing in ``chunks_per_rank``,
* it is bounded below by (and converges to) the pipeline floor, and
* k=1 degenerates exactly to the analytic model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    COMM_STREAM,
    COMPUTE_STREAM,
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    EventCategory,
    NetworkModel,
    Topology,
)
from repro.dist.comm import METADATA_BYTES_PER_ENTRY as METADATA_BYTES
from tests.conftest import events_in


@st.composite
def fabric_and_ranks(draw):
    """A sampled fabric plus its rank count: flat alpha-beta models and
    heterogeneous two-level topologies (incl. oversubscribed inter links)."""
    kind = draw(st.sampled_from(["flat", "hier"]))
    if kind == "flat":
        n = draw(st.integers(min_value=2, max_value=6))
        bandwidth = draw(st.floats(min_value=1e8, max_value=1e11))
        latency = draw(st.floats(min_value=0.0, max_value=1e-5))
        return NetworkModel(bandwidth=bandwidth, latency=latency), n
    n_nodes, gpus = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]))
    intra = draw(st.sampled_from([NVLINK_LIKE, PCIE_LIKE]))
    inter = draw(
        st.sampled_from([IB_HDR_LIKE, PCIE_LIKE, IB_HDR_LIKE.oversubscribed(4.0)])
    )
    topology = Topology.hierarchical(n_nodes, gpus, intra, inter)
    return NetworkModel.from_topology(topology), n_nodes * gpus


def _workload(n: int, seed: int):
    rng = np.random.default_rng(seed)
    compress = rng.uniform(0.0, 2e-3, size=n).tolist()
    decompress = rng.uniform(0.0, 2e-3, size=n).tolist()
    sizes = rng.integers(0, 60_000, size=(n, n))
    return compress, decompress, sizes


def _run(network, compress, decompress, sizes, chunks, *, overlap=True):
    n = len(compress)
    sim = ClusterSimulator(n, network=network)
    sendbufs = [
        [b"x" * int(sizes[src][dst]) for dst in range(n)] for src in range(n)
    ]
    sim.comm.compressed_all_to_all(
        sendbufs,
        overlap=overlap,
        compress_seconds=compress,
        decompress_seconds=decompress,
        chunks_per_rank=chunks,
    )
    return sim


def _analytic_k1(network, compress, decompress, sizes) -> float:
    """PR 3's k=1 model: every rank compresses, the metadata and payload
    collectives follow, every rank decompresses."""
    n = len(compress)
    meta = network.uniform_all_to_all_time(METADATA_BYTES, n)
    wire = network.all_to_all_time(np.asarray(sizes, dtype=np.float64))
    return max(compress) + meta + wire + max(decompress)


class TestChunkEvents:
    """Acceptance: k real chunk events per rank, correctly tagged."""

    def test_emits_k_wire_chunk_events_per_rank(self):
        k = 5
        sim = _run(
            NetworkModel(bandwidth=1e9, latency=1e-6),
            [1e-3] * 4,
            [5e-4] * 4,
            np.full((4, 4), 20_000),
            k,
        )
        for rank in range(4):
            wire = [
                e
                for e in events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
                if e.rank == rank
            ]
            assert len(wire) == k
            assert all(e.stream == COMM_STREAM for e in wire)
            assert sorted(e.args["chunk"] for e in wire) == list(range(k))
            compress = [
                e
                for e in events_in(sim.timeline, EventCategory.COMPRESS)
                if e.rank == rank
            ]
            decode = [
                e
                for e in events_in(sim.timeline, EventCategory.DECOMPRESS)
                if e.rank == rank
            ]
            assert len(compress) == k and len(decode) == k
            assert all(e.stream == COMPUTE_STREAM for e in compress + decode)

    def test_per_rank_chunk_counts_respected(self):
        chunks = [1, 2, 3, 4]
        sim = _run(
            NetworkModel(bandwidth=1e9, latency=1e-6),
            [1e-3] * 4,
            [0.0] * 4,
            np.full((4, 4), 20_000),
            chunks,
        )
        for rank, k in enumerate(chunks):
            wire = [
                e
                for e in events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
                if e.rank == rank
            ]
            assert len(wire) == k

    def test_wire_chunk_starts_respect_compress_and_slot(self):
        """Chunk i's wire starts only after its compress finished and the
        previous chunk's wire slot freed."""
        sim = _run(
            NetworkModel(bandwidth=1e9, latency=1e-6),
            [4e-3],
            [0.0],
            np.zeros((1, 1)),
            4,
        )
        # Single rank: no wire time, but chunk events must still trail
        # their compress chunks.
        compress = sorted(
            events_in(sim.timeline, EventCategory.COMPRESS),
            key=lambda e: e.start,
        )
        wire = sorted(
            events_in(sim.timeline, EventCategory.ALLTOALL_FWD),
            key=lambda e: e.start,
        )
        for comp, w in zip(compress, wire):
            assert w.start >= comp.end - 1e-15
        for a, b in zip(wire, wire[1:]):
            assert b.start >= a.end - 1e-15

    def test_wire_chunk_durations_match_actual_byte_shares(self):
        """Sequence payloads: each chunk's wire time is its group's actual
        byte share of the collective, not an even ``payload_seconds / k``
        split (self-destined slices carry zero wire bytes)."""
        network = NetworkModel(bandwidth=1e9, latency=0.0)
        n, k = 2, 3
        sim = ClusterSimulator(n, network=network)
        # Rank 0 posts three off-diagonal slices of very different sizes
        # (plus a self slice that must price as zero wire bytes).
        rank0_to_1 = [b"a" * 60_000, b"b" * 30_000, b"c" * 10_000]
        sendbufs = [
            [[b"s" * 5_000], rank0_to_1],
            [[b"d" * 50_000, b"e" * 25_000, b"f" * 25_000], [b"t" * 5_000]],
        ]
        sim.comm.compressed_all_to_all(
            sendbufs,
            overlap=True,
            chunks_per_rank=k,
        )
        payload_seconds = network.all_to_all_time(
            np.array([[5_000, 100_000], [100_000, 5_000]])
        )
        for rank, row_sizes in ((0, [0, 60_000, 30_000, 10_000]), (1, [50_000, 25_000, 25_000, 0])):
            wire = sorted(
                (
                    e
                    for e in events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
                    if e.rank == rank
                ),
                key=lambda e: e.args["chunk"],
            )
            # 4 atomic parts into 3 chunks: groups of 2, 1, 1 parts.
            groups = [row_sizes[0] + row_sizes[1], row_sizes[2], row_sizes[3]]
            total = sum(groups)
            assert [e.duration for e in wire] == pytest.approx(
                [payload_seconds * g / total for g in groups]
            )
            assert sum(e.duration for e in wire) == pytest.approx(payload_seconds)

    def test_single_buffer_rows_price_equal_chunks(self):
        """An indivisible buffer splits into equal-byte chunks — the k
        slices of one buffer genuinely are even shares."""
        sim = _run(
            NetworkModel(bandwidth=1e9, latency=1e-6),
            [0.0, 0.0],
            [0.0, 0.0],
            np.full((2, 2), 30_000),
            3,
        )
        durations = {
            e.duration
            for e in events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
        }
        assert len(durations) == 1  # every chunk identical

    def test_scalar_chunks_per_rank_accepted(self):
        sim = _run(
            NetworkModel(bandwidth=1e9, latency=1e-6),
            [1e-3, 1e-3],
            [0.0, 0.0],
            np.full((2, 2), 1000),
            3,
        )
        wire = events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
        assert len(wire) == 6  # 3 chunks x 2 ranks


class TestTimingLaws:
    """The satellite property tests: sequential/analytic bounds, chunk-count
    monotonicity, and the k=1 degeneracy — over sampled fabrics."""

    @given(fabric_and_ranks(), st.integers(1, 12), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_sequential_and_analytic_k1(self, fabric, k, seed):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        chunked = _run(network, compress, decompress, sizes, k)
        sequential = _run(network, compress, decompress, sizes, k, overlap=False)
        analytic = _analytic_k1(network, compress, decompress, sizes)
        assert chunked.makespan() <= sequential.makespan() + 1e-12
        assert chunked.makespan() <= analytic + 1e-12

    @given(fabric_and_ranks(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_monotone_non_increasing_in_chunk_count(self, fabric, seed):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        makespans = [
            _run(network, compress, decompress, sizes, k).makespan()
            for k in (1, 2, 3, 4, 6, 8, 12, 16)
        ]
        for coarse, fine in zip(makespans, makespans[1:]):
            assert fine <= coarse + 1e-12

    @given(fabric_and_ranks(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_k1_degenerates_to_analytic_model(self, fabric, seed):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        run = _run(network, compress, decompress, sizes, 1)
        assert run.makespan() == pytest.approx(
            _analytic_k1(network, compress, decompress, sizes), rel=1e-12, abs=1e-15
        )

    @given(fabric_and_ranks(), st.integers(1, 16), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_floor(self, fabric, k, seed):
        """No chunking beats the pipeline floor: the busiest compute
        stream (compress + decode serialize per rank) and the wire behind
        the metadata round."""
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        meta = network.uniform_all_to_all_time(METADATA_BYTES, n)
        wire = network.all_to_all_time(np.asarray(sizes, dtype=np.float64))
        floor = max(
            max(c + d for c, d in zip(compress, decompress)), meta + wire
        )
        assert _run(network, compress, decompress, sizes, k).makespan() >= floor - 1e-12

    def test_fine_chunking_converges_to_the_floor(self):
        network = NetworkModel(bandwidth=1e9, latency=1e-6)
        compress = [2e-3] * 4
        decompress = [1e-3] * 4
        sizes = np.full((4, 4), 100_000)
        meta = network.uniform_all_to_all_time(METADATA_BYTES, 4)
        wire = network.all_to_all_time(sizes.astype(np.float64))
        floor = max(compress[0] + decompress[0], meta + wire)
        k = 256
        makespan = _run(network, compress, decompress, sizes, k).makespan()
        slack = 4.0 * (compress[0] + wire + decompress[0] + meta) / k
        assert floor - 1e-12 <= makespan <= floor + slack


def _run_split(network, compress, decompress, sizes, chunks, seed, *, overlap=True):
    """Like :func:`_run`, but every pair's payload is posted as a sequence
    of unevenly-sized per-slice buffers — the trainer's batch shape, which
    exercises the actual-byte-share chunk pricing."""
    n = len(compress)
    rng = np.random.default_rng(seed)
    sendbufs = []
    for src in range(n):
        row = []
        for dst in range(n):
            nbytes = int(sizes[src][dst])
            n_parts = int(rng.integers(1, 5))
            cuts = np.sort(rng.integers(0, nbytes + 1, size=n_parts - 1))
            bounds = [0, *cuts.tolist(), nbytes]
            row.append([b"x" * (bounds[i + 1] - bounds[i]) for i in range(n_parts)])
        sendbufs.append(row)
    sim = ClusterSimulator(n, network=network)
    sim.comm.compressed_all_to_all(
        sendbufs,
        overlap=overlap,
        compress_seconds=compress,
        decompress_seconds=decompress,
        chunks_per_rank=chunks,
    )
    return sim


class TestVariableChunkPricingLaws:
    """The even-split laws that survive actual-byte-share pricing, over
    sequence-structured payloads: the per-rank wire total is unchanged, so
    the sequential/analytic bounds, the floor, and the k=1 degeneracy all
    still hold (chunk-count monotonicity is an even-split law and keeps its
    single-buffer harness above)."""

    @given(fabric_and_ranks(), st.integers(1, 12), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_sequential_and_analytic_k1(self, fabric, k, seed):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        chunked = _run_split(network, compress, decompress, sizes, k, seed)
        sequential = _run_split(
            network, compress, decompress, sizes, k, seed, overlap=False
        )
        analytic = _analytic_k1(network, compress, decompress, sizes)
        assert chunked.makespan() <= sequential.makespan() + 1e-12
        assert chunked.makespan() <= analytic + 1e-12

    @given(fabric_and_ranks(), st.integers(1, 16), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_floor_and_wire_conservation(self, fabric, k, seed):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        sim = _run_split(network, compress, decompress, sizes, k, seed)
        meta = network.uniform_all_to_all_time(METADATA_BYTES, n)
        wire = network.all_to_all_time(np.asarray(sizes, dtype=np.float64))
        floor = max(
            max(c + d for c, d in zip(compress, decompress)), meta + wire
        )
        assert sim.makespan() >= floor - 1e-12
        for rank in range(n):
            rank_wire = sum(
                e.duration
                for e in events_in(sim.timeline, EventCategory.ALLTOALL_FWD)
                if e.rank == rank
            )
            assert rank_wire == pytest.approx(wire, rel=1e-9, abs=1e-15)

    @given(fabric_and_ranks(), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_k1_degenerates_to_analytic_model(self, fabric, seed):
        network, n = fabric
        compress, decompress, sizes = _workload(n, seed)
        run = _run_split(network, compress, decompress, sizes, 1, seed)
        assert run.makespan() == pytest.approx(
            _analytic_k1(network, compress, decompress, sizes), rel=1e-12, abs=1e-15
        )
