"""Golden ledger digests for the exchange engine.

Every digest below was recorded at commit ``b881649`` — the last one whose
``Communicator._overlapped_exchange`` scheduled the chunk pipeline one
``stream_compute`` call at a time — and pins the ledger *event for event*:
blake2b over ``(rank, category, start.hex(), duration.hex(), stream,
sorted(args), release_edges)`` of every event in recording order, plus the
final per-stream clocks.  The vectorised schedule builder must reproduce
each one bit for bit; there is no copy of the old loop to compare against.

Run ``python tests/dist/test_ledger_golden.py`` to print the digests of
the current checkout (only ever paste them here from a commit whose ledger
is known good).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dist import (
    IB_HDR_LIKE,
    NVLINK_LIKE,
    PCIE_LIKE,
    ClusterSimulator,
    EventCategory,
    NetworkModel,
    Topology,
)
from repro.faults import FaultInjector, FaultPlan, LinkFault, StragglerFault


def ledger_digest(sim: ClusterSimulator) -> str:
    h = hashlib.blake2b(digest_size=16)
    for e in sim.timeline.events:
        h.update(
            repr(
                (
                    e.rank,
                    str(e.category),
                    e.start.hex(),
                    e.duration.hex(),
                    e.stream,
                    sorted(e.args.items()) if e.args else None,
                    e.release_edges,
                )
            ).encode()
        )
    for stream in sorted(sim._streams):
        h.update(repr((stream, [c.hex() for c in sim._streams[stream]])).encode())
    if sim.fault_injector is not None:
        h.update(repr(sorted(sim.fault_injector.injected.items())).encode())
    return h.hexdigest()


# ------------------------------------------------------------------ worlds


def _hier(n_nodes: int, gpus: int, inter=IB_HDR_LIKE) -> NetworkModel:
    return NetworkModel.from_topology(
        Topology.hierarchical(n_nodes, gpus, NVLINK_LIKE, inter)
    )


def _slice_payloads(n: int, rng, low: int = 1, high: int = 5):
    """Per-slice ``bytes`` rows: ``sendbufs[src][dst]`` is a list of
    ``entries[src, dst]`` payloads of seeded sizes."""
    entries = rng.integers(low, high, size=(n, n))
    blob = bytes(4096)
    sendbufs = [
        [
            [blob[: int(s)] for s in rng.integers(16, 4096, size=entries[src, dst])]
            for dst in range(n)
        ]
        for src in range(n)
    ]
    return sendbufs, entries


def _seconds(n: int, rng, zeros=()) -> list[float]:
    values = rng.uniform(20e-6, 400e-6, size=n).tolist()
    for rank in zeros:
        values[rank] = 0.0
    return values


def world_benchmark_shape() -> ClusterSimulator:
    """The ``exchange_engine`` world: 16 x 8 ranks, 4 ``bytes`` payloads
    per pair, 8 chunks — two back-to-back rounds with the all-reduce."""
    n = 128
    rng = np.random.default_rng(100)
    sizes = rng.integers(64, 2049, size=(n, n, 4))
    blob = bytes(2048)
    sendbufs = [
        [[blob[: int(s)] for s in sizes[src, dst]] for dst in range(n)]
        for src in range(n)
    ]
    compress = rng.uniform(20e-6, 200e-6, size=n).tolist()
    decompress = rng.uniform(20e-6, 200e-6, size=n).tolist()
    sim = ClusterSimulator(n, network=_hier(16, 8, IB_HDR_LIKE.oversubscribed(4)))
    for _ in range(2):
        sim.comm.compressed_all_to_all(
            sendbufs,
            entries_per_pair=4,
            overlap=True,
            chunks_per_rank=8,
            compress_seconds=compress,
            decompress_seconds=decompress,
        )
        sim.comm.all_reduce_bytes(1 << 20, algorithm="hierarchical")
    return sim


def world_ragged_chunks() -> ClusterSimulator:
    n = 8
    rng = np.random.default_rng(1)
    sendbufs, entries = _slice_payloads(n, rng)
    sim = ClusterSimulator(n, network=_hier(2, 4))
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=entries,
        overlap=True,
        chunks_per_rank=[1, 2, 3, 5, 8, 4, 7, 6],
        compress_seconds=_seconds(n, rng),
        decompress_seconds=_seconds(n, rng),
    )
    return sim


def world_default_chunks() -> ClusterSimulator:
    """``chunks_per_rank=None``: one chunk per destination."""
    n = 6
    rng = np.random.default_rng(2)
    sendbufs, entries = _slice_payloads(n, rng)
    sim = ClusterSimulator(n, network=_hier(3, 2, PCIE_LIKE))
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=entries,
        overlap=True,
        compress_seconds=_seconds(n, rng),
        decompress_seconds=_seconds(n, rng),
    )
    return sim


def world_zero_cost_ranks() -> ClusterSimulator:
    """Ranks 0 and 3 compress for free, ranks 3 and 5 decode for free;
    the second exchange gives no codec times at all."""
    n = 6
    rng = np.random.default_rng(3)
    sendbufs, entries = _slice_payloads(n, rng)
    sim = ClusterSimulator(n)
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=entries,
        overlap=True,
        chunks_per_rank=[3, 1, 4, 2, 3, 5],
        compress_seconds=_seconds(n, rng, zeros=(0, 3)),
        decompress_seconds=_seconds(n, rng, zeros=(3, 5)),
    )
    sim.comm.compressed_all_to_all(
        sendbufs, entries_per_pair=entries, overlap=True, chunks_per_rank=3
    )
    return sim


def world_metadata_skipped() -> ClusterSimulator:
    """All-zero ``entries_per_pair``: no stage ②, wire chunks are released
    by the first compress chunks directly."""
    n = 5
    rng = np.random.default_rng(4)
    sendbufs, _ = _slice_payloads(n, rng)
    sim = ClusterSimulator(n, network=_hier(1, 5))
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=np.zeros((n, n), dtype=np.int64),
        category=EventCategory.ALLTOALL_BWD,
        overlap=True,
        chunks_per_rank=[2, 4, 1, 3, 4],
        compress_seconds=_seconds(n, rng, zeros=(2,)),
        decompress_seconds=_seconds(n, rng),
    )
    return sim


def world_payload_shapes() -> ClusterSimulator:
    """Single-buffer rows, per-slice rows and mixed rows in one exchange;
    parts are ``bytes``, ``bytearray``, ``memoryview``, ``ndarray`` and a
    nested list; one row is all-empty (nothing on the wire) and one is cut
    finer than its slice count."""
    n = 6
    rng = np.random.default_rng(5)

    def part(kind: int, size: int):
        if kind == 0:
            return bytes(size)
        if kind == 1:
            return bytearray(size)
        if kind == 2:
            return memoryview(np.zeros(size, dtype=np.int32))  # nbytes = 4 * len
        if kind == 3:
            return np.zeros((size, 2), dtype=np.float32)
        return [bytes(size), np.zeros(3, dtype=np.int64)]

    sendbufs = []
    for src in range(n):
        row = []
        for dst in range(n):
            size = int(rng.integers(8, 512))
            if src == 0:  # indivisible buffers only
                row.append(part(dst % 4, size))
            elif src == 1:  # empty slices: zero bytes on the wire
                row.append([b"", b""])
            elif src == 2:  # one slice per pair, cut into 9 chunks
                row.append((part(0, size),))
            elif src == 3:  # mixed: bare buffers beside slice lists
                row.append(part(1, size) if dst % 2 else [part(k, size + k) for k in range(5)])
            else:
                row.append([part((dst + k) % 5, size + 3 * k) for k in range(1 + dst % 3)])
        sendbufs.append(row)
    sim = ClusterSimulator(n, network=_hier(2, 3))
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=2,
        overlap=True,
        chunks_per_rank=[4, 3, 9, 5, 2, 6],
        compress_seconds=_seconds(n, rng),
        decompress_seconds=_seconds(n, rng),
    )
    return sim


def world_overlap_compute() -> ClusterSimulator:
    n = 4
    rng = np.random.default_rng(6)
    sendbufs, entries = _slice_payloads(n, rng)
    sim = ClusterSimulator(n, network=NetworkModel(bandwidth=2e9, latency=3e-6))
    sim.compute(1, 1e-4, EventCategory.TOP_MLP_BWD)  # ranks start unaligned
    sim.stream_compute(2, 5e-5, EventCategory.OPTIMIZER, "aux")  # extra stream
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=entries,
        category=EventCategory.ALLTOALL_BWD,
        overlap=True,
        chunks_per_rank=[2, 3, 4, 1],
        compress_seconds=_seconds(n, rng),
        decompress_seconds=_seconds(n, rng),
        overlap_compute_seconds=[3e-4, 0.0, 8e-4, 1e-5],
    )
    return sim


def world_back_to_back() -> ClusterSimulator:
    """Two exchanges and an all-reduce on one simulator, then a sequential
    exchange, a plain all-to-all and a byte-matrix all-to-all — every
    caller of the shared sizing pass and of ``collective``."""
    n = 8
    rng = np.random.default_rng(7)
    sendbufs, entries = _slice_payloads(n, rng)
    sim = ClusterSimulator(n, network=_hier(4, 2, IB_HDR_LIKE.oversubscribed(2)))
    for chunks in (4, [1, 2, 3, 4, 5, 6, 7, 8]):
        sim.comm.compressed_all_to_all(
            sendbufs,
            entries_per_pair=entries,
            overlap=True,
            chunks_per_rank=chunks,
            compress_seconds=_seconds(n, rng),
            decompress_seconds=_seconds(n, rng),
        )
        sim.comm.all_reduce_bytes(1 << 18)
    sim.comm.compressed_all_to_all(
        sendbufs,
        entries_per_pair=entries,
        compress_seconds=_seconds(n, rng, zeros=(1,)),
        decompress_seconds=_seconds(n, rng),
    )
    sim.comm.all_to_all(sendbufs)
    sim.comm.all_to_all_bytes(
        rng.integers(0, 1 << 16, size=(n, n)),
        overlap_compute_seconds=_seconds(n, rng, zeros=(0,)),
    )
    return sim


def world_faults() -> ClusterSimulator:
    """A straggler, a fabric outage and a degraded link bend the schedule
    through ``FaultInjector.adjust_stream_event`` / ``adjust_collective``."""
    n = 6
    rng = np.random.default_rng(8)
    sendbufs, entries = _slice_payloads(n, rng)
    plan = FaultPlan(
        links=(
            LinkFault(start=2.12e-4, duration=4e-5, outage=True),
            LinkFault(start=2.4e-4, duration=1e-4, bandwidth_factor=0.4),
            LinkFault(start=9.3e-4, duration=6e-5, bandwidth_factor=0.6),
            LinkFault(start=1.44e-3, duration=2e-5, outage=True),
        ),
        stragglers=(
            StragglerFault(rank=1, start=0.0, duration=2e-4, slowdown=2.5),
            StragglerFault(rank=4, start=3e-4, duration=1.0, slowdown=1.7),
        ),
    )
    sim = ClusterSimulator(n, network=_hier(2, 3))
    sim.fault_injector = FaultInjector(plan, seed=3)
    for chunks in ([3, 4, 2, 5, 1, 4], None):
        sim.comm.compressed_all_to_all(
            sendbufs,
            entries_per_pair=entries,
            overlap=True,
            chunks_per_rank=chunks,
            compress_seconds=_seconds(n, rng, zeros=(2,)),
            decompress_seconds=_seconds(n, rng),
            overlap_compute_seconds=[0.0, 2e-4, 0.0, 1e-4, 0.0, 0.0],
        )
        sim.comm.all_reduce_bytes(1 << 16, algorithm="hierarchical")
    return sim


WORLDS = {
    "benchmark_shape": world_benchmark_shape,
    "ragged_chunks": world_ragged_chunks,
    "default_chunks": world_default_chunks,
    "zero_cost_ranks": world_zero_cost_ranks,
    "metadata_skipped": world_metadata_skipped,
    "payload_shapes": world_payload_shapes,
    "overlap_compute": world_overlap_compute,
    "back_to_back": world_back_to_back,
    "faults": world_faults,
}

#: recorded at b881649 (per-event scheduling loop) — see the module docstring
GOLDEN = {
    "benchmark_shape": "b6fafd2e90bf423b7e495031398a5fbf",  # 6656 events
    "ragged_chunks": "627e219530be17474e6d088ad2215d14",  # 116 events
    "default_chunks": "ece129e3a816e49d561104c47500d709",  # 114 events
    "zero_cost_ranks": "a220b3ed6d859feab6dc1aabb84acd4b",  # 72 events
    "metadata_skipped": "723f984825f54027fef794236744709a",  # 41 events
    "payload_shapes": "02f88df9ef8cb25cd0c0e343c53fb819",  # 93 events
    "overlap_compute": "7cd5c6a8fa82902e278ede3cb61bee4e",  # 39 events
    "back_to_back": "0caeae076137bf0923e7cdff8ce03c62",  # 290 events
    "faults": "3d5ec601cf82ebe9072607c0dcbd9117",  # 185 events
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_ledger_matches_golden_digest(name):
    assert ledger_digest(WORLDS[name]()) == GOLDEN[name]


def test_fault_world_actually_bites():
    """The fault digest is only an oracle if every fault kind fired."""
    injected = world_faults().fault_injector.injected
    assert {"straggler", "outage", "degraded_link"} <= set(injected)


if __name__ == "__main__":  # pragma: no cover - digest recorder
    for world_name in WORLDS:
        sim = WORLDS[world_name]()
        print(f'    "{world_name}": "{ledger_digest(sim)}",  # {len(sim.timeline)} events')
