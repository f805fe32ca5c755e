"""Tests for the Communicator's exact collectives and the simulator's
clock/timeline bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    COMM_STREAM,
    COMPUTE_STREAM,
    ClusterSimulator,
    Communicator,
    EventCategory,
    NetworkModel,
    payload_nbytes,
)


@pytest.fixture
def sim() -> ClusterSimulator:
    return ClusterSimulator(4)


def rank_buffers(n: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    return [
        [rng.normal(size=(3, 5)).astype(np.float32) for _ in range(n)] for _ in range(n)
    ]


class TestPayloadNbytes:
    def test_sizes(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(7)) == 7
        assert payload_nbytes(np.zeros((2, 3), dtype=np.float32)) == 24

    def test_memoryview_counts_bytes_not_items(self):
        assert payload_nbytes(memoryview(np.zeros(10, dtype=np.float64))) == 80

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            payload_nbytes(12345)


class TestAllToAll:
    def test_bit_identical_roundtrip(self, sim):
        """Receivers get exactly the objects the senders posted: a full
        exchange-and-return leaves every buffer bit-identical."""
        rng = np.random.default_rng(7)
        sent = rank_buffers(4, rng)
        received = sim.comm.all_to_all(sent)
        # received[dst][src] is sent[src][dst], exact.
        for src in range(4):
            for dst in range(4):
                np.testing.assert_array_equal(received[dst][src], sent[src][dst])
        # Send everything straight back: bit-identical roundtrip.
        returned = sim.comm.all_to_all(received)
        for src in range(4):
            for dst in range(4):
                np.testing.assert_array_equal(returned[src][dst], sent[src][dst])

    def test_bytes_payloads(self, sim):
        sent = [[f"{src}->{dst}".encode() for dst in range(4)] for src in range(4)]
        received = sim.comm.all_to_all(sent)
        assert received[2][1] == b"1->2"

    def test_charges_wire_time_to_all_ranks(self, sim):
        rng = np.random.default_rng(7)
        sim.comm.all_to_all(rank_buffers(4, rng))
        events = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        assert {e.rank for e in events} == {0, 1, 2, 3}
        assert len({(e.start, e.end) for e in events}) == 1  # identical spans
        assert sim.makespan() > 0.0

    def test_charged_time_matches_network_model(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        sim = ClusterSimulator(4, network=net)
        sent = [[b"x" * 1000 for _ in range(4)] for _ in range(4)]
        sim.comm.all_to_all(sent)
        expected = net.all_to_all_time(np.full((4, 4), 1000))
        assert sim.makespan() == pytest.approx(expected)

    def test_wrong_shape_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.comm.all_to_all([[b""] * 4] * 3)
        with pytest.raises(ValueError):
            sim.comm.all_to_all([[b""] * 3] * 4)


class TestCompressedAllToAll:
    def test_metadata_round_precedes_payloads(self, sim):
        sent = [[b"x" * (src + dst + 1) for dst in range(4)] for src in range(4)]
        received = sim.comm.compressed_all_to_all(sent, entries_per_pair=26)
        assert received[3][1] == b"x" * 5
        meta = sim.timeline.events_in_category(EventCategory.METADATA)
        payload = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        assert len(meta) == 4 and len(payload) == 4
        assert max(e.end for e in meta) <= min(e.start for e in payload)

    def test_backward_exchange_can_be_labelled(self, sim):
        sent = [[b"g" * 8 for _ in range(4)] for _ in range(4)]
        sim.comm.compressed_all_to_all(sent, category=EventCategory.ALLTOALL_BWD)
        assert len(sim.timeline.events_in_category(EventCategory.ALLTOALL_BWD)) == 4
        assert not sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)

    def test_metadata_cost_is_fixed_size(self):
        """Stage ② pricing ignores payload sizes — only entry count."""
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        results = []
        for scale in (1, 1000):
            sim = ClusterSimulator(4, network=net)
            sent = [[b"x" * scale for _ in range(4)] for _ in range(4)]
            sim.comm.compressed_all_to_all(sent, metadata_bytes_per_entry=16)
            meta = sim.timeline.events_in_category(EventCategory.METADATA)
            results.append(meta[0].duration)
        assert results[0] == pytest.approx(results[1])

    def test_validation(self, sim):
        good = [[b"x"] * 4] * 4
        with pytest.raises(ValueError):
            sim.comm.compressed_all_to_all(good, metadata_bytes_per_entry=0)
        with pytest.raises(ValueError):
            sim.comm.compressed_all_to_all(good, entries_per_pair=0)


class TestAllReduce:
    def test_exact_deterministic_sum(self, sim):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=(8, 8)).astype(np.float32) for _ in range(4)]
        expected = arrays[0].copy()
        for a in arrays[1:]:
            expected += a
        results = sim.comm.all_reduce(arrays)
        assert len(results) == 4
        for out in results:
            np.testing.assert_array_equal(out, expected)  # bit-identical
        # Results are copies, not views of one shared buffer.
        results[0][0, 0] += 1.0
        np.testing.assert_array_equal(results[1], expected)

    def test_charges_allreduce_time(self, sim):
        arrays = [np.ones(1024, dtype=np.float32) for _ in range(4)]
        sim.comm.all_reduce(arrays)
        events = sim.timeline.events_in_category(EventCategory.ALLREDUCE)
        assert {e.rank for e in events} == {0, 1, 2, 3}

    def test_shape_mismatch_rejected(self, sim):
        arrays = [np.ones(4), np.ones(4), np.ones(5), np.ones(4)]
        with pytest.raises(ValueError, match="shape"):
            sim.comm.all_reduce(arrays)

    def test_wrong_count_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.comm.all_reduce([np.ones(4)] * 3)

    def test_dtype_mismatch_rejected(self, sim):
        """Mixed dtypes would silently accumulate in arrays[0]'s dtype (or
        crash in numpy), breaking the bit-for-bit guarantee — reject early."""
        arrays = [np.ones(4, dtype=np.float32) for _ in range(3)]
        arrays.append(np.ones(4, dtype=np.float64))
        with pytest.raises(ValueError, match="dtype"):
            sim.comm.all_reduce(arrays)


class TestBroadcast:
    def test_everyone_gets_roots_payload(self, sim):
        out = sim.comm.broadcast(b"plan", root=2)
        assert out == [b"plan"] * 4
        assert sim.makespan() > 0.0

    def test_mutable_payloads_not_aliased_across_ranks(self, sim):
        out = sim.comm.broadcast(np.zeros(4))
        out[1][0] += 1.0
        np.testing.assert_array_equal(out[0], np.zeros(4))
        out2 = sim.comm.broadcast(bytearray(b"abc"))
        out2[1][0] = ord("z")
        assert out2[0] == bytearray(b"abc")

    def test_single_rank_free(self):
        sim = ClusterSimulator(1)
        assert sim.comm.broadcast(b"plan") == [b"plan"]
        assert sim.makespan() == 0.0

    def test_bad_root_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.comm.broadcast(b"x", root=4)


class TestClusterSimulator:
    def test_compute_advances_only_that_rank(self, sim):
        end = sim.compute(1, 0.25, EventCategory.COMPRESS)
        assert end == pytest.approx(0.25)
        assert sim.now(1) == pytest.approx(0.25)
        assert sim.now(0) == 0.0
        assert sim.clocks == (0.0, 0.25, 0.0, 0.0)

    def test_collective_waits_for_straggler(self, sim):
        sim.compute(2, 1.0, EventCategory.COMPRESS)
        end = sim.collective(0.5, EventCategory.ALLTOALL_FWD)
        assert end == pytest.approx(1.5)
        assert sim.clocks == (1.5, 1.5, 1.5, 1.5)
        events = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        assert all(e.start == pytest.approx(1.0) for e in events)

    def test_barrier_syncs_without_event(self, sim):
        sim.compute(0, 2.0, EventCategory.COMPRESS)
        n_events = len(sim.timeline)
        assert sim.barrier() == pytest.approx(2.0)
        assert sim.clocks == (2.0, 2.0, 2.0, 2.0)
        assert len(sim.timeline) == n_events

    def test_reset(self, sim):
        sim.compute(0, 1.0, EventCategory.COMPRESS)
        sim.reset()
        assert sim.makespan() == 0.0
        assert len(sim.timeline) == 0

    def test_reset_ledger_equals_fresh_simulator(self, sim):
        """Regression: ``reset()`` left ``Communicator._exchange_counter``
        running, so a reset simulator tagged its chunk events
        ``exchange=1`` where a fresh one says ``exchange=0``."""

        def exchange(target: ClusterSimulator) -> None:
            bufs = [[[bytes(64 * (s + 1)), bytes(32 + d)] for d in range(4)] for s in range(4)]
            target.comm.compressed_all_to_all(
                bufs,
                entries_per_pair=2,
                overlap=True,
                chunks_per_rank=3,
                compress_seconds=[1e-4, 2e-4, 0.0, 3e-4],
                decompress_seconds=[2e-4] * 4,
            )

        exchange(sim)
        sim.reset()
        exchange(sim)
        fresh = ClusterSimulator(4)
        exchange(fresh)
        assert sim.timeline.events == fresh.timeline.events
        assert {e.args["exchange"] for e in sim.timeline.events} == {0}
        assert sim.clocks == fresh.clocks

    def test_owns_cost_models_and_communicator(self, sim):
        assert sim.gpu is not None
        assert sim.network is not None
        assert isinstance(sim.comm, Communicator)
        assert sim.comm.simulator is sim

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ClusterSimulator(0)
        with pytest.raises(ValueError):
            sim.compute(4, 1.0, EventCategory.COMPRESS)
        with pytest.raises(ValueError):
            sim.compute(0, -1.0, EventCategory.COMPRESS)
        with pytest.raises(ValueError):
            sim.collective(float("nan"), EventCategory.ALLTOALL_FWD)

    def test_repr(self, sim):
        assert "n_ranks=4" in repr(sim)


class TestStreams:
    def test_streams_advance_independently(self, sim):
        sim.stream_compute(0, 1.0, EventCategory.COMPRESS, COMPUTE_STREAM)
        sim.stream_compute(0, 0.25, EventCategory.ALLTOALL_FWD, COMM_STREAM)
        assert sim.stream_now(0, COMPUTE_STREAM) == pytest.approx(1.0)
        assert sim.stream_now(0, COMM_STREAM) == pytest.approx(0.25)
        # Rank clock is the max over its streams.
        assert sim.now(0) == pytest.approx(1.0)
        # The comm event started at 0 — concurrent with the compute event.
        comm_event = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)[0]
        assert comm_event.start == 0.0 and comm_event.stream == COMM_STREAM

    def test_sync_joins_streams(self, sim):
        sim.stream_compute(1, 2.0, EventCategory.COMPRESS, COMPUTE_STREAM)
        assert sim.stream_now(1, COMM_STREAM) == 0.0
        assert sim.sync(1) == pytest.approx(2.0)
        assert sim.stream_now(1, COMM_STREAM) == pytest.approx(2.0)
        # Other ranks untouched (sync is per rank, not a barrier).
        assert sim.now(0) == 0.0

    def test_not_before_delays_start(self, sim):
        end = sim.stream_compute(
            0, 1.0, EventCategory.DECOMPRESS, COMPUTE_STREAM, not_before=5.0
        )
        assert end == pytest.approx(6.0)
        event = sim.timeline.events_in_category(EventCategory.DECOMPRESS)[0]
        assert event.start == pytest.approx(5.0)

    def test_collective_lands_on_comm_stream_and_joins_all(self, sim):
        sim.stream_compute(2, 1.0, EventCategory.COMPRESS, COMPUTE_STREAM)
        sim.collective(0.5, EventCategory.ALLTOALL_FWD)
        events = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        assert all(e.stream == COMM_STREAM for e in events)
        assert all(e.start == pytest.approx(1.0) for e in events)
        assert sim.clocks == tuple([pytest.approx(1.5)] * 4)

    def test_per_stream_events_never_overlap(self, sim):
        for _ in range(3):
            sim.stream_compute(0, 0.5, EventCategory.COMPRESS, COMPUTE_STREAM)
            sim.stream_compute(0, 0.7, EventCategory.ALLTOALL_FWD, COMM_STREAM)
        for stream in (COMPUTE_STREAM, COMM_STREAM):
            events = sorted(
                (e for e in sim.timeline.events if e.stream == stream),
                key=lambda e: e.start,
            )
            for a, b in zip(events, events[1:]):
                assert a.end <= b.start + 1e-12

    def test_reset_clears_streams(self, sim):
        sim.stream_compute(0, 1.0, EventCategory.COMPRESS, COMM_STREAM)
        sim.reset()
        assert sim.makespan() == 0.0
        assert sim.stream_now(0, COMM_STREAM) == 0.0


def _run_compressed_exchange(overlap: bool, compress, decompress, sizes, chunks):
    n = len(compress)
    sim = ClusterSimulator(n, network=NetworkModel(bandwidth=1e9, latency=1e-6))
    sendbufs = [[b"x" * sizes[src][dst] for dst in range(n)] for src in range(n)]
    sim.comm.compressed_all_to_all(
        sendbufs,
        overlap=overlap,
        compress_seconds=compress,
        decompress_seconds=decompress,
        chunks_per_rank=chunks,
    )
    return sim


class TestOverlappedExchange:
    def test_overlap_reduces_makespan(self):
        compress = [1e-3] * 4
        decompress = [5e-4] * 4
        sizes = [[40_000] * 4 for _ in range(4)]
        chunks = [8] * 4
        sequential = _run_compressed_exchange(False, compress, decompress, sizes, chunks)
        overlapped = _run_compressed_exchange(True, compress, decompress, sizes, chunks)
        assert overlapped.makespan() < sequential.makespan()

    def test_overlap_events_double_book_streams(self):
        sim = _run_compressed_exchange(
            True, [1e-3] * 4, [5e-4] * 4, [[40_000] * 4] * 4, [8] * 4
        )
        wire = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        compress = sim.timeline.events_in_category(EventCategory.COMPRESS)
        assert all(e.stream == COMM_STREAM for e in wire)
        assert all(e.stream == COMPUTE_STREAM for e in compress)
        # The wire starts before compression has finished: true overlap.
        assert min(e.start for e in wire) < max(e.end for e in compress)

    def test_overlap_metadata_spans_identical_wire_chunked_per_rank(self):
        sim = _run_compressed_exchange(
            True, [1e-3, 2e-3, 5e-4, 0.0], [1e-4] * 4, [[10_000] * 4] * 4, [4] * 4
        )
        meta = sim.timeline.events_in_category(EventCategory.METADATA)
        assert len({(e.start, e.end) for e in meta}) == 1
        # The wire is k real chunk events per rank on the comm stream,
        # tagged with chunk args, never overlapping within one rank's lane.
        wire = sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)
        for rank in range(4):
            rank_chunks = sorted(
                (e for e in wire if e.rank == rank), key=lambda e: e.start
            )
            assert len(rank_chunks) == 4
            assert [e.args["chunk"] for e in rank_chunks] == [0, 1, 2, 3]
            assert all(e.args["chunks"] == 4 for e in rank_chunks)
            for a, b in zip(rank_chunks, rank_chunks[1:]):
                assert a.end <= b.start + 1e-12
        # Every rank's chunk durations sum to the full collective time.
        expected = sim.network.all_to_all_time(np.full((4, 4), 10_000))
        for rank in range(4):
            total = sum(e.duration for e in wire if e.rank == rank)
            assert total == pytest.approx(expected)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_overlap_never_worse_property(self, n, seed):
        """The satellite property: overlapped makespan <= sequential, for
        arbitrary per-rank compress/decompress times, payload sizes, and
        chunk granularities."""
        rng = np.random.default_rng(seed)
        compress = rng.uniform(0.0, 2e-3, size=n).tolist()
        decompress = rng.uniform(0.0, 2e-3, size=n).tolist()
        sizes = rng.integers(0, 60_000, size=(n, n)).tolist()
        chunks = rng.integers(1, 12, size=n).tolist()
        sequential = _run_compressed_exchange(False, compress, decompress, sizes, chunks)
        overlapped = _run_compressed_exchange(True, compress, decompress, sizes, chunks)
        assert overlapped.makespan() <= sequential.makespan() + 1e-12

    def test_straggler_chunk_granularity_holds_the_wire_open(self):
        """The wire cannot finish before the compression straggler's last
        chunk plus that rank's OWN wire share: chunking the straggler
        coarser must lengthen the exchange, even when another rank is
        finely chunked."""
        compress = [1e-3, 0.0]
        sizes = [[400_000] * 2] * 2
        coarse = _run_compressed_exchange(True, compress, [0.0] * 2, sizes, [2, 8])
        fine = _run_compressed_exchange(True, compress, [0.0] * 2, sizes, [8, 8])
        assert coarse.makespan() > fine.makespan()

    def test_single_chunk_overlap_cannot_hide_compression(self):
        """With one chunk per rank the wire cannot start early; only the
        decode tail can hide, so the gain is bounded."""
        compress = [1e-3] * 4
        sizes = [[40_000] * 4] * 4
        sequential = _run_compressed_exchange(False, compress, [0.0] * 4, sizes, [1] * 4)
        overlapped = _run_compressed_exchange(True, compress, [0.0] * 4, sizes, [1] * 4)
        assert overlapped.makespan() == pytest.approx(sequential.makespan())

    def test_validation(self, sim):
        good = [[b"x"] * 4] * 4
        with pytest.raises(ValueError, match="compress_seconds"):
            sim.comm.compressed_all_to_all(good, compress_seconds=[1.0])
        with pytest.raises(ValueError, match="chunks_per_rank"):
            sim.comm.compressed_all_to_all(good, chunks_per_rank=[0] * 4)
        with pytest.raises(ValueError, match="entries_per_pair"):
            sim.comm.compressed_all_to_all(good, entries_per_pair=np.ones((3, 3)))


class TestEntriesMatrix:
    def test_matrix_metadata_matches_matrix_pricing(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        sim = ClusterSimulator(4, network=net)
        entries = np.arange(16).reshape(4, 4)
        sim.comm.compressed_all_to_all(
            [[b"x"] * 4] * 4, metadata_bytes_per_entry=16, entries_per_pair=entries
        )
        meta = sim.timeline.events_in_category(EventCategory.METADATA)
        assert meta[0].duration == pytest.approx(net.all_to_all_time(16.0 * entries))

    def test_all_zero_matrix_skips_metadata_round(self, sim):
        sim.comm.compressed_all_to_all(
            [[b"x"] * 4] * 4, entries_per_pair=np.zeros((4, 4), dtype=np.int64)
        )
        assert not sim.timeline.events_in_category(EventCategory.METADATA)
        assert sim.timeline.events_in_category(EventCategory.ALLTOALL_FWD)


class TestPricedCollectives:
    def test_all_to_all_bytes_matches_data_path(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        priced = ClusterSimulator(4, network=net)
        moved = ClusterSimulator(4, network=net)
        matrix = np.full((4, 4), 1000)
        priced.comm.all_to_all_bytes(matrix, EventCategory.ALLTOALL_BWD)
        moved.comm.all_to_all([[b"x" * 1000] * 4] * 4, EventCategory.ALLTOALL_BWD)
        assert priced.makespan() == pytest.approx(moved.makespan())

    def test_all_to_all_bytes_shape_rejected(self, sim):
        with pytest.raises(ValueError, match="does not match"):
            sim.comm.all_to_all_bytes(np.zeros((3, 3)))

    def test_all_reduce_bytes_matches_all_reduce(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        priced = ClusterSimulator(4, network=net)
        moved = ClusterSimulator(4, network=net)
        arrays = [np.ones(1024, dtype=np.float32) for _ in range(4)]
        moved.comm.all_reduce(arrays)
        priced.comm.all_reduce_bytes(arrays[0].nbytes)
        assert priced.makespan() == pytest.approx(moved.makespan())

    def test_all_reduce_bytes_hierarchical_uses_topology(self):
        from repro.dist import NetworkModel as NM, Topology

        net = NM.from_topology(Topology.hierarchical(2, 2))
        ring = ClusterSimulator(4, network=net)
        hier = ClusterSimulator(4, network=net)
        ring.comm.all_reduce_bytes(1 << 24, algorithm="ring")
        hier.comm.all_reduce_bytes(1 << 24, algorithm="hierarchical")
        assert hier.makespan() < ring.makespan()

    def test_bad_algorithm_rejected(self, sim):
        with pytest.raises(ValueError, match="algorithm"):
            sim.comm.all_reduce_bytes(1024, algorithm="tree")


class TestMultiPayload:
    def test_lists_are_sized_and_delivered_whole(self, sim):
        sendbufs = [
            [[b"a" * 3, b"b" * 5] for _ in range(4)] for _ in range(4)
        ]
        assert payload_nbytes(sendbufs[0][0]) == 8
        received = sim.comm.all_to_all(sendbufs)
        assert received[1][2] == [b"a" * 3, b"b" * 5]

    def test_wire_time_counts_the_sum_of_parts(self):
        net = NetworkModel(bandwidth=1e9, latency=1e-6)
        batched = ClusterSimulator(4, network=net)
        single = ClusterSimulator(4, network=net)
        batched.comm.all_to_all([[[b"x" * 400, b"y" * 600]] * 4] * 4)
        single.comm.all_to_all([[b"z" * 1000] * 4] * 4)
        assert batched.makespan() == pytest.approx(single.makespan())


class TestPayloadMetadataMismatch:
    def test_mismatched_batch_names_rank_and_counts(self, sim):
        """A sender whose posted batch disagrees with its advertised
        metadata count fails with the rank and both counts — not a bare
        KeyError/IndexError downstream."""
        entries = np.full((4, 4), 2)
        sendbufs = [[[b"a", b"b"] for _ in range(4)] for _ in range(4)]
        sendbufs[2][1] = [b"only-one"]
        with pytest.raises(ValueError, match=r"rank 2 posted 1 payload\(s\) for rank 1"):
            sim.comm.compressed_all_to_all(sendbufs, entries_per_pair=entries)

    def test_matching_batches_pass(self, sim):
        entries = np.full((4, 4), 2)
        sendbufs = [[[b"a", b"b"] for _ in range(4)] for _ in range(4)]
        received = sim.comm.compressed_all_to_all(sendbufs, entries_per_pair=entries)
        assert received[0][3] == [b"a", b"b"]

    def test_scalar_entries_skip_the_check(self, sim):
        sendbufs = [[b"payload"] * 4 for _ in range(4)]
        sim.comm.compressed_all_to_all(sendbufs, entries_per_pair=3)
