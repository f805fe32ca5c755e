"""Throughput benchmark harness for the compression hot paths.

The paper's speedup claim (Figs. 11/12) only holds if compression plus wire
time beats the raw all-to-all, so codec throughput is a first-class,
*tracked* quantity in this reproduction.  This module times the hot
kernels — quantization, vector-LZ encode/decode, Huffman encode/decode, and
the byte-LZ / bit-plane baselines — on the paper's table shapes, against
the frozen seed implementations (``_reference_*``), and persists the
results as machine-readable JSON (``BENCH_compression.json`` at the repo
root) so every subsequent change has a trajectory to compare against.

Three entry points:

* :func:`run_suite` — measure, returning :class:`PerfRecord` rows.
* :func:`write_bench` / :func:`load_bench` — persist / read the JSON.
* :func:`compare_to_baseline` — regression gate used by CI's perf-smoke
  step (fails on > ``max_regression``x throughput loss per kernel).

CLI::

    python -m repro.profiling.perfbench --out BENCH_compression.json
    python -m repro.profiling.perfbench --smoke --check BENCH_compression.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.compression.baselines.fzgpu_like import (
    _reference_pack_bitplanes,
    _reference_unpack_bitplanes,
    pack_bitplanes,
    unpack_bitplanes,
    zigzag_encode,
)
from repro.compression.baselines.lz_generic import (
    _reference_lz77_decode_bytes,
    _reference_lz77_encode_bytes,
    lz77_decode_bytes,
    lz77_encode_bytes,
)
from repro.compression.huffman import (
    _reference_huffman_decode,
    _reference_huffman_encode,
    huffman_decode,
    huffman_encode,
)
from repro.compression.hybrid import HybridCompressor
from repro.compression.parallel import BitstreamPool, CodecExecutor, CompressJob
from repro.compression.quantizer import quantize_batch
from repro.compression.homomorphic import agg_sum
from repro.compression.registry import decompress_any, get_compressor
from repro.compression.serialization import (
    _reference_frame_with_checksum,
    _reference_verify_checksum_frame,
    frame_with_checksum,
    verify_checksum_frame,
)
from repro.obs import runtime as obs_runtime
from repro.obs.registry import MetricsRegistry
from repro.compression.vector_lz import (
    VectorLZCompressor,
    _reference_vector_lz_decode,
    vector_lz_decode,
    vector_lz_encode,
)

__all__ = [
    "PerfRecord",
    "PAPER_SHAPES",
    "SMOKE_SHAPES",
    "DEFAULT_ERROR_BOUND",
    "TIGHTENED_GATES",
    "PARALLEL_WORKER_COUNTS",
    "make_lookup_batch",
    "run_suite",
    "write_bench",
    "load_bench",
    "load_trajectory",
    "write_trajectory",
    "append_run",
    "compare_to_baseline",
    "format_table",
    "main",
]

SCHEMA_VERSION = 1

#: trajectory files: ``{"schema_version": 2, "runs": [run, run, ...]}``
#: where each run is a v1 payload minus its own ``schema_version`` —
#: one entry per landed PR, oldest first, so the perf-regression sentry
#: has a per-kernel history to fit robust baselines over
TRAJECTORY_SCHEMA_VERSION = 2

#: evaluation geometry: (batch rows, embedding dim) per the paper's setups
#: (Criteo-Kaggle batch 128, Terabyte batch 2048, Fig.-12 cluster dim 64)
PAPER_SHAPES: dict[str, tuple[int, int]] = {
    "kaggle": (128, 32),
    "terabyte": (2048, 32),
    "cluster": (4096, 64),
}

#: single small shape for CI perf-smoke runs
SMOKE_SHAPES: dict[str, tuple[int, int]] = {"terabyte": (2048, 32)}

DEFAULT_ERROR_BOUND = 1e-2
_SEED = 2024

#: pin window for the hybrid_pinned rows — large enough that best-of-N
#: timing loops (N <= 9 across the harness and CLI) never straddle a
#: re-trial, so the measured call is the steady-state pinned replay
PIN_REFRESH = 64

#: worker counts the parallel_hybrid rows sweep (the raw-speed PR's claim
#: is measured against the serial loop over the same jobs)
PARALLEL_WORKER_COUNTS = (1, 2, 4)

#: slice count for the parallel_hybrid jobs — one exchange's worth of
#: independent per-destination slices on an 8-rank fabric
PARALLEL_JOB_SLICES = 8

#: the vector_lz_batch rows' stack: (destination slices, local rows, dim)
#: of one table in the headline 32-rank, batch-4096, dim-64 exchange
STACK_SHAPE = (32, 128, 64)

#: the shard_recompress rows' table: (rows, dim) stored in 64-row blocks —
#: 62 full blocks and a ragged 32-row tail
SHARD_TABLE_SHAPE = (4000, 32)
SHARD_ROWS_PER_BLOCK = 64

#: the shard_pull rows time this many pulls a call (a pull is tens of
#: microseconds: one alone is below what best-of timing resolves here)
SHARD_PULLS_PER_CALL = 64

#: kernels whose committed speedups carry comfortable headroom over their
#: seed references get a tighter regression gate than the default 3x —
#: a real regression on them shows up well before the generic band
TIGHTENED_GATES: dict[tuple[str, str], float] = {
    ("vector_lz", "decode"): 2.5,
    ("huffman", "encode"): 2.5,
    ("huffman", "decode"): 2.5,
    ("lz4_like", "encode"): 2.5,
    ("lz4_like", "decode"): 2.5,
    ("fzgpu_like", "pack"): 2.5,
    ("fzgpu_like", "unpack"): 2.5,
    ("hybrid_pinned", "compress"): 2.5,
}


@dataclass(frozen=True)
class PerfRecord:
    """One timed kernel on one table shape."""

    codec: str  # e.g. "vector_lz", "huffman", "quantizer", "lz4_like", "fzgpu_like"
    op: str  # "encode" | "decode" | "quantize" | "pack" | "unpack"
    shape_name: str
    rows: int
    dim: int
    input_nbytes: int  # uncompressed float32 bytes the kernel accounts for
    seconds: float  # best-of wall time of the current implementation
    throughput_mb_s: float
    reference_seconds: float | None = None  # frozen seed implementation
    speedup: float | None = None  # reference_seconds / seconds
    #: peak tracemalloc bytes over one call (zero_copy rows only): what the
    #: kernel *allocates*, as opposed to how fast it runs
    alloc_nbytes: int | None = None
    reference_alloc_nbytes: int | None = None

    @staticmethod
    def from_timing(
        codec: str,
        op: str,
        shape_name: str,
        rows: int,
        dim: int,
        input_nbytes: int,
        seconds: float,
        reference_seconds: float | None = None,
        alloc_nbytes: int | None = None,
        reference_alloc_nbytes: int | None = None,
    ) -> "PerfRecord":
        return PerfRecord(
            codec=codec,
            op=op,
            shape_name=shape_name,
            rows=rows,
            dim=dim,
            input_nbytes=input_nbytes,
            seconds=seconds,
            throughput_mb_s=input_nbytes / seconds / 1e6,
            reference_seconds=reference_seconds,
            speedup=None if reference_seconds is None else reference_seconds / seconds,
            alloc_nbytes=alloc_nbytes,
            reference_alloc_nbytes=reference_alloc_nbytes,
        )


def make_lookup_batch(
    rows: int, dim: int, *, pool: int = 64, cold_fraction: float = 0.1, seed: int = _SEED
) -> np.ndarray:
    """A DLRM-like lookup batch: hot rows recur with a skewed distribution.

    Mirrors the unbalanced query pattern the vector-LZ encoder exploits
    (Section III-D): a small pool of embedding rows sampled Zipf-style with
    per-lookup noise well below the default error bound (so quantization
    homogenizes the repeats, the paper's vector-homogenization effect),
    plus a ``cold_fraction`` of one-off rows that stay literals.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 0.1, size=(pool, dim)).astype(np.float32)
    ranks = rng.zipf(1.5, size=rows)
    picks = np.minimum(ranks - 1, pool - 1).astype(np.int64)
    noise = rng.normal(0.0, 1e-4, size=(rows, dim)).astype(np.float32)
    batch = base[picks] + noise
    is_cold = rng.random(rows) < cold_fraction
    n_cold = int(is_cold.sum())
    if n_cold:
        batch[is_cold] = rng.normal(0.0, 0.1, size=(n_cold, dim)).astype(np.float32)
    return batch


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_peak(fn: Callable[[], object], repeats: int = 3) -> int:
    """Smallest peak tracemalloc footprint of one call.

    NumPy routes array data through the tracemalloc domain hooks, so this
    covers the buffers that matter, not just Python objects.  Best-of
    because interpreter-side caches can inflate the first call."""
    best = None
    for _ in range(max(1, repeats)):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        best = peak if best is None else min(best, peak)
    return int(best or 0)


def _best_of_pair(
    fn: Callable[[], object], ref_fn: Callable[[], object], repeats: int
) -> tuple[float, float]:
    """Best-of timing with the two sides alternated call by call, so both
    minima come from the same load/frequency window.  Sequential timing
    (all of ``fn`` then all of ``ref_fn``) lets load drift between the two
    windows masquerade as a speedup difference — fatal when the real gap
    is small, as for the instrumentation-overhead rows."""
    best = ref_best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        ref_fn()
        ref_best = min(ref_best, time.perf_counter() - t0)
    return best, ref_best


def run_suite(
    shapes: dict[str, tuple[int, int]] | None = None,
    *,
    error_bound: float = DEFAULT_ERROR_BOUND,
    repeats: int = 5,
    include_reference: bool = True,
    seed: int = _SEED,
) -> list[PerfRecord]:
    """Time every hot kernel on every shape; returns one record per (kernel, shape)."""
    if shapes is None:
        shapes = PAPER_SHAPES
    records: list[PerfRecord] = []

    def add(
        codec, op, shape_name, rows, dim, nbytes, fn, ref_fn=None,
        *, interleave=False, measure_alloc=False,
    ):
        if ref_fn is not None and include_reference and interleave:
            seconds, ref_seconds = _best_of_pair(fn, ref_fn, repeats)
        else:
            seconds = _best_of(fn, repeats)
            ref_seconds = (
                _best_of(ref_fn, repeats) if (ref_fn is not None and include_reference) else None
            )
        alloc = ref_alloc = None
        if measure_alloc:
            alloc = _traced_peak(fn)
            if ref_fn is not None and include_reference:
                ref_alloc = _traced_peak(ref_fn)
        records.append(
            PerfRecord.from_timing(
                codec, op, shape_name, rows, dim, nbytes, seconds, ref_seconds,
                alloc, ref_alloc,
            )
        )

    for shape_name, (rows, dim) in shapes.items():
        batch = make_lookup_batch(rows, dim, seed=seed)
        nbytes = batch.nbytes

        add(
            "quantizer", "quantize", shape_name, rows, dim, nbytes,
            lambda: quantize_batch(batch, error_bound),
        )
        quantized = quantize_batch(batch, error_bound)
        codes = quantized.codes

        # --- vector-LZ (the paper's LZ leg) ---
        add(
            "vector_lz", "encode", shape_name, rows, dim, nbytes,
            lambda: vector_lz_encode(codes),
        )
        lz_stream = vector_lz_encode(codes)
        add(
            "vector_lz", "decode", shape_name, rows, dim, nbytes,
            lambda: vector_lz_decode(lz_stream),
            lambda: _reference_vector_lz_decode(lz_stream),
        )

        # --- optimized Huffman (the paper's entropy leg) ---
        alphabet = quantized.alphabet_size
        add(
            "huffman", "encode", shape_name, rows, dim, nbytes,
            lambda: huffman_encode(codes, alphabet),
            lambda: _reference_huffman_encode(codes, alphabet),
        )
        huff_stream = huffman_encode(codes, alphabet)
        add(
            "huffman", "decode", shape_name, rows, dim, nbytes,
            lambda: huffman_decode(huff_stream),
            lambda: _reference_huffman_decode(huff_stream),
        )

        # --- generic byte-LZ baseline (nvCOMP-LZ4 family) ---
        raw = batch.tobytes()
        add(
            "lz4_like", "encode", shape_name, rows, dim, nbytes,
            lambda: lz77_encode_bytes(raw),
            lambda: _reference_lz77_encode_bytes(raw),
        )
        byte_stream = lz77_encode_bytes(raw)
        add(
            "lz4_like", "decode", shape_name, rows, dim, nbytes,
            lambda: lz77_decode_bytes(byte_stream, len(raw)),
            lambda: _reference_lz77_decode_bytes(byte_stream, len(raw)),
        )

        # --- end-to-end hybrid codec, framing included (what one table
        # slice actually pays on the training hot path) ---
        hybrid = HybridCompressor()
        add(
            "hybrid", "compress", shape_name, rows, dim, nbytes,
            lambda: hybrid.compress(batch, error_bound),
        )
        hybrid_payload = hybrid.compress(batch, error_bound)
        add(
            "hybrid", "decompress", shape_name, rows, dim, nbytes,
            lambda: hybrid.decompress(hybrid_payload),
        )

        # --- CRC32 checksum envelope (the fault-tolerance framing): what
        # integrity costs on top of the codec.  The serve_degraded/pull
        # row is one faultable shard pull — verify the envelope, then the
        # registry-level decode that strips it — against the bare decode,
        # so the speedup column reads as the degraded-fabric overhead. ---
        framed_payload = frame_with_checksum(hybrid_payload)
        add(
            "checksum", "frame", shape_name, rows, dim, nbytes,
            lambda: frame_with_checksum(hybrid_payload),
        )
        add(
            "checksum", "verify", shape_name, rows, dim, nbytes,
            lambda: verify_checksum_frame(framed_payload),
        )

        def _degraded_pull():
            verify_checksum_frame(framed_payload)
            return decompress_any(framed_payload)

        add(
            "serve_degraded", "pull", shape_name, rows, dim, nbytes,
            _degraded_pull,
            lambda: hybrid.decompress(hybrid_payload),
            interleave=True,
        )

        # --- hybrid codec with the observability runtime enabled: prices
        # what instrumentation costs on the hot path.  Reference: the
        # same call with the runtime disabled, so the speedup is exactly
        # 1 / (1 + overhead) — the ≤3% budget the obs tests pin. ---
        obs_registry = MetricsRegistry()

        def _with_obs(fn):
            obs_runtime.enable(obs_registry)
            try:
                return fn()
            finally:
                obs_runtime.disable()

        add(
            "hybrid_obs", "compress", shape_name, rows, dim, nbytes,
            lambda: _with_obs(lambda: hybrid.compress(batch, error_bound)),
            lambda: hybrid.compress(batch, error_bound),
            interleave=True,
        )
        add(
            "hybrid_obs", "decompress", shape_name, rows, dim, nbytes,
            lambda: _with_obs(lambda: hybrid.decompress(hybrid_payload)),
            lambda: hybrid.decompress(hybrid_payload),
            interleave=True,
        )

        # --- hybrid auto with pinned-encoder replay: the training hot
        # loop's configuration (key= + pin_refresh) amortizes
        # the try-both trial over the refresh window, so steady-state
        # calls run a single leg.  Reference: the per-call try-both auto
        # path, so the speedup is exactly what pinning buys. ---
        pinned = HybridCompressor(pin_refresh=PIN_REFRESH)
        pinned.compress(batch, error_bound, key="bench")  # pin the winner
        add(
            "hybrid_pinned", "compress", shape_name, rows, dim, nbytes,
            lambda: pinned.compress(batch, error_bound, key="bench"),
            lambda: hybrid.compress(batch, error_bound),
        )

        # --- multicore codec executor: one exchange's worth of independent
        # slices (the per-destination splits of this batch) compressed at
        # 1/2/4 workers.  Reference: the serial in-process loop over the
        # same jobs, so the speedup column reads as parallel efficiency —
        # honest on any machine, including single-core CI boxes where it
        # sits near (or below) 1.0x. ---
        slices = [
            np.ascontiguousarray(piece)
            for piece in np.array_split(batch, PARALLEL_JOB_SLICES, axis=0)
            if piece.shape[0]
        ]
        jobs = [CompressJob("hybrid", piece, error_bound) for piece in slices]
        with CodecExecutor(1) as serial_executor:
            serial_executor.compress_batch(jobs)  # warm codec caches
            for workers in PARALLEL_WORKER_COUNTS:
                with CodecExecutor(workers) as executor:
                    executor.compress_batch(jobs)  # warm the worker pool
                    add(
                        "parallel_hybrid", f"workers{workers}", shape_name, rows, dim, nbytes,
                        lambda executor=executor: executor.compress_batch(jobs),
                        lambda: serial_executor.compress_batch(jobs),
                        interleave=True,
                    )

        # --- zero-copy bitstream discipline: the pooled/view paths against
        # the frozen copying seed implementations.  These rows carry
        # ``alloc_nbytes`` (peak tracemalloc bytes per call) next to the
        # wall time — the claim is fewer allocations, not just speed. ---
        zero_pool = BitstreamPool()
        frame_with_checksum(hybrid_payload, pool=zero_pool).release()  # warm arena
        add(
            "zero_copy", "frame", shape_name, rows, dim, nbytes,
            lambda: frame_with_checksum(hybrid_payload, pool=zero_pool).release(),
            lambda: _reference_frame_with_checksum(hybrid_payload),
            measure_alloc=True,
        )
        add(
            "zero_copy", "verify", shape_name, rows, dim, nbytes,
            lambda: verify_checksum_frame(framed_payload),
            lambda: _reference_verify_checksum_frame(framed_payload),
            measure_alloc=True,
        )
        hybrid.compress(batch, error_bound, pool=zero_pool).release()  # warm arena
        # (label predates compress(pool=); kept so the bench trajectory stays one series)
        add(
            "zero_copy", "compress_into", shape_name, rows, dim, nbytes,
            lambda: hybrid.compress(batch, error_bound, pool=zero_pool).release(),
            lambda: hybrid.compress(batch, error_bound),
            measure_alloc=True,
        )

        # --- FZ-GPU-like bit-plane baseline ---
        unsigned = zigzag_encode(quantized.codes.ravel() + quantized.code_min)
        add(
            "fzgpu_like", "pack", shape_name, rows, dim, nbytes,
            lambda: pack_bitplanes(unsigned, 256),
            lambda: _reference_pack_bitplanes(unsigned, 256),
        )
        bitmap, payload, n_blocks = pack_bitplanes(unsigned, 256)
        add(
            "fzgpu_like", "unpack", shape_name, rows, dim, nbytes,
            lambda: unpack_bitplanes(bitmap, payload, unsigned.size, 256, n_blocks),
            lambda: _reference_unpack_bitplanes(bitmap, payload, unsigned.size, 256, n_blocks),
        )

        # --- homomorphic aggregation: one in-network all-reduce hop.  The
        # agg rows sum two payloads *in compressed space*; the reference
        # is the decode-sum-recode discipline a non-homomorphic codec
        # forces on every intermediate hop, so the speedup column reads
        # as the per-hop saving of in-network aggregation. ---
        quant = get_compressor("quant_sum")
        half = batch * np.float32(0.5)
        q_payload = quant.compress(half, error_bound)

        def _quant_hop():
            total = quant.decompress(q_payload) + quant.decompress(q_payload)
            return quant.compress(total, error_bound)

        add(
            "homomorphic_allreduce", "agg_quant", shape_name, rows, dim, nbytes,
            lambda: agg_sum(q_payload, q_payload),
            _quant_hop,
            interleave=True,
        )
        count = get_compressor("count_sum")
        c_payload = count.compress(half, None)

        def _count_hop():
            total = count.decompress(c_payload) + count.decompress(c_payload)
            return count.compress(total, None)

        add(
            "homomorphic_allreduce", "agg_count", shape_name, rows, dim, nbytes,
            lambda: agg_sum(c_payload, c_payload),
            _count_hop,
            interleave=True,
        )

    # --- fused per-table stage ①/④: all destination slices of one table
    # (32 ranks x 128 local rows x dim 64, the headline exchange) through
    # the batched vector-LZ kernels in one pass.  Reference: the serial
    # per-slice loop producing the same payloads, so the speedup column is
    # what amortising NumPy's per-call overhead over the stack buys.  One
    # row pair regardless of the shape sweep. ---
    lz = VectorLZCompressor()
    n_slices, local_rows, stack_dim = STACK_SHAPE
    stack = make_lookup_batch(n_slices * local_rows, stack_dim, seed=seed).reshape(STACK_SHAPE)
    stack_name = "x".join(map(str, STACK_SHAPE))
    add(
        "vector_lz_batch", "compress", stack_name, n_slices * local_rows, stack_dim, stack.nbytes,
        lambda: lz.compress_stack(stack, error_bound),
        lambda: [lz.compress(piece, error_bound) for piece in stack],
        interleave=True,
    )
    stack_payloads = lz.compress_stack(stack, error_bound)
    add(
        "vector_lz_batch", "decompress", stack_name, n_slices * local_rows, stack_dim, stack.nbytes,
        lambda: lz.decompress_stack(stack_payloads),
        lambda: [decompress_any(payload) for payload in stack_payloads],
        interleave=True,
    )

    # --- incremental shard re-encode: one ``set_table`` of a vector-LZ
    # table against the per-block loop that used to run every publication
    # round.  churn0 re-publishes unchanged values (digest only, the
    # common round); churn100 changes every block (digest + one stacked
    # encode of the full-size blocks + the ragged tail).  One row pair
    # regardless of the shape sweep. ---
    from repro.serve.shard_server import EmbeddingShardServer

    shard_rows, shard_dim = SHARD_TABLE_SHAPE
    shard_values = make_lookup_batch(shard_rows, shard_dim, seed=seed)
    shard = EmbeddingShardServer(
        {0: shard_values}, error_bound, "vector_lz", rows_per_block=SHARD_ROWS_PER_BLOCK
    )
    loop_pool = BitstreamPool()

    def _per_block_loop():
        leases = [
            lz.compress(shard_values[lo : lo + SHARD_ROWS_PER_BLOCK], error_bound, key=0, pool=loop_pool)
            for lo in range(0, shard_rows, SHARD_ROWS_PER_BLOCK)
        ]
        for lease in leases:
            lease.release()

    # every call publishes the table the shard does not hold
    churn = itertools.cycle([shard_values + np.float32(0.5), shard_values])
    shard_name = f"{shard_rows}x{shard_dim}"
    add(
        "shard_recompress", "churn0", shard_name, shard_rows, shard_dim, shard_values.nbytes,
        lambda: shard.set_table(0, shard_values),
        _per_block_loop,
        interleave=True,
    )
    add(
        "shard_recompress", "churn100", shard_name, shard_rows, shard_dim, shard_values.nbytes,
        lambda: shard.set_table(0, next(churn)),
        _per_block_loop,
        interleave=True,
    )

    # --- row-granular shard pulls: ``pull`` of one row (what a replica's
    # cache miss issues) and of 32 rows of one block, on a vector-LZ and an
    # entropy table, against the block-decode-then-index loop ``pull`` used
    # to be.  row1 runs the codec's row kernel; rows32 is past
    # ``ROW_DECODE_MAX_ROWS`` and takes the block decode, so it reads ~1x —
    # the pair brackets the crossover constant.  One row set regardless of
    # the shape sweep. ---
    pull_rng = np.random.default_rng(seed)
    pull_requests = {
        "row1": [pull_rng.integers(0, shard_rows, size=1) for _ in range(SHARD_PULLS_PER_CALL)],
        "rows32": [
            block * SHARD_ROWS_PER_BLOCK + pull_rng.choice(SHARD_ROWS_PER_BLOCK, 32, replace=False)
            for block in pull_rng.integers(
                0, shard_rows // SHARD_ROWS_PER_BLOCK, size=SHARD_PULLS_PER_CALL
            )
        ],
    }
    for pull_codec in ("vector_lz", "entropy"):
        pulled = EmbeddingShardServer(
            {0: shard_values}, error_bound, pull_codec, rows_per_block=SHARD_ROWS_PER_BLOCK
        )
        blocks = pulled._tables[0].blocks  # the reference decodes the shard's own payloads

        def _block_decode_then_index(row_ids):
            rows = np.empty((row_ids.size, shard_dim), dtype=np.float32)
            block_ids = row_ids // SHARD_ROWS_PER_BLOCK
            for block_id in np.unique(block_ids):
                decoded = decompress_any(blocks[block_id])
                in_block = block_ids == block_id
                rows[in_block] = decoded[row_ids[in_block] - block_id * SHARD_ROWS_PER_BLOCK]
            return rows

        for op, requests in pull_requests.items():
            add(
                "shard_pull", op, f"{pull_codec}_{shard_name}", shard_rows, shard_dim,
                sum(ids.size for ids in requests) * shard_dim * 4,
                lambda: [pulled.pull(0, ids) for ids in requests],
                lambda: [_block_decode_then_index(ids) for ids in requests],
                interleave=True,
            )

    # --- critical-path analyzer: dependency-DAG reconstruction plus the
    # walk-back over a chunk-pipelined exchange timeline — the
    # repro.obs.critpath hot path the obs-smoke job runs over the
    # day-in-the-life trace.  One row regardless of the shape sweep; the
    # rows/dim columns carry the fabric (8 ranks x 4 chunks) and
    # input_nbytes the chrome-trace JSON the analyzer would otherwise be
    # fed from disk. ---
    from repro.dist.simulator import ClusterSimulator
    from repro.obs.critpath import extract_critical_path

    dag_ranks, dag_chunks = 8, 4
    dag_sim = ClusterSimulator(dag_ranks)
    dag_bufs = [[b"x" * 4096] * dag_ranks for _ in range(dag_ranks)]
    for _ in range(3):
        dag_sim.comm.compressed_all_to_all(
            dag_bufs,
            overlap=True,
            compress_seconds=[2e-3 + 1e-4 * r for r in range(dag_ranks)],
            decompress_seconds=[1e-3 + 5e-5 * r for r in range(dag_ranks)],
            chunks_per_rank=dag_chunks,
        )
    trace_nbytes = len(json.dumps(dag_sim.timeline.to_chrome_trace()))
    add(
        "critpath", "extract", "fabric8x4", dag_ranks, dag_chunks, trace_nbytes,
        lambda: extract_critical_path(dag_sim.timeline),
    )

    # --- the same analyzer on the shape ``bench_e2e``'s ``exchange_engine``
    # world has — 16 x 8 hierarchical ranks, 8 chunks, 4 rounds each closed
    # by an all-reduce: 13 312 events, 8 704 of them carrying release edges
    # — where the walk visits ~50 events and ``speedup_if`` (timed from a
    # fresh DAG: columns + plan + one forward pass) reschedules all of
    # them. ---
    from repro.dist import IB_HDR_LIKE, NVLINK_LIKE, EventCategory, NetworkModel, Topology
    from repro.obs.critpath import TimelineDag

    big_nodes, big_gpus, big_chunks = 16, 8, 8
    big_ranks = big_nodes * big_gpus
    big_rng = np.random.default_rng(seed)
    big_sizes = big_rng.integers(64, 2049, size=(big_ranks, big_ranks))
    big_blob = bytes(2048)
    big_bufs = [[big_blob[: int(size)] for size in row] for row in big_sizes]
    big_sim = ClusterSimulator(
        big_ranks,
        network=NetworkModel.from_topology(
            Topology.hierarchical(big_nodes, big_gpus, NVLINK_LIKE, IB_HDR_LIKE.oversubscribed(4))
        ),
    )
    big_compress = big_rng.uniform(20e-6, 200e-6, size=big_ranks).tolist()
    big_decompress = big_rng.uniform(20e-6, 200e-6, size=big_ranks).tolist()
    for _ in range(4):
        big_sim.comm.compressed_all_to_all(
            big_bufs,
            overlap=True,
            compress_seconds=big_compress,
            decompress_seconds=big_decompress,
            chunks_per_rank=big_chunks,
        )
        big_sim.comm.all_reduce_bytes(1 << 20, algorithm="hierarchical")
    big_nbytes = len(json.dumps(big_sim.timeline.to_chrome_trace()))
    add(
        "critpath", "extract", "fabric128x8", big_ranks, big_chunks, big_nbytes,
        lambda: extract_critical_path(big_sim.timeline),
    )
    add(
        "critpath", "speedup_if", "fabric128x8", big_ranks, big_chunks, big_nbytes,
        lambda: TimelineDag.from_timeline(big_sim.timeline).speedup_if(
            EventCategory.COMPRESS, 2.0
        ),
    )
    return records


# --------------------------------------------------------------- persistence


def write_bench(records: Iterable[PerfRecord], path: str | Path) -> Path:
    """Persist records (plus environment provenance) as JSON."""
    path = Path(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "records": [asdict(r) for r in records],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _run_records(run: dict) -> list[PerfRecord]:
    return [PerfRecord(**r) for r in run["records"]]


def load_bench(path: str | Path) -> list[PerfRecord]:
    """Read records written by :func:`write_bench`.

    Accepts both the flat v1 payload and a v2 trajectory (in which case
    the *latest* run's records are returned — the committed baseline the
    ``--check`` gate compares against).
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version == SCHEMA_VERSION:
        return _run_records(payload)
    if version == TRAJECTORY_SCHEMA_VERSION:
        runs = payload.get("runs") or []
        if not runs:
            raise ValueError(f"trajectory {path} has no runs")
        return _run_records(runs[-1])
    raise ValueError(f"unsupported bench schema {version!r} in {path}")


def load_trajectory(path: str | Path) -> list[list[PerfRecord]]:
    """All runs in a bench file, oldest first.

    A v1 payload is a trajectory of one run, so callers (the sentry) can
    consume either format.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version == SCHEMA_VERSION:
        return [_run_records(payload)]
    if version == TRAJECTORY_SCHEMA_VERSION:
        return [_run_records(run) for run in payload.get("runs") or []]
    raise ValueError(f"unsupported bench schema {version!r} in {path}")


def _run_payload(records: Iterable[PerfRecord]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "records": [asdict(r) for r in records],
    }


def write_trajectory(
    runs: Sequence[Sequence[PerfRecord]], path: str | Path
) -> Path:
    """Persist a v2 trajectory (one environment stanza per run; the runs
    passed in are stamped with the *current* environment — use
    :func:`append_run` to extend a file that keeps its history's stanzas)."""
    path = Path(path)
    payload = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "runs": [_run_payload(run) for run in runs],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def append_run(records: Iterable[PerfRecord], path: str | Path) -> Path:
    """Append one run to a trajectory file, migrating a v1 payload (its
    environment stanza preserved) or starting a fresh trajectory if the
    file does not exist."""
    path = Path(path)
    runs: list[dict] = []
    if path.exists():
        payload = json.loads(path.read_text())
        version = payload.get("schema_version")
        if version == SCHEMA_VERSION:
            runs = [{k: v for k, v in payload.items() if k != "schema_version"}]
        elif version == TRAJECTORY_SCHEMA_VERSION:
            runs = list(payload.get("runs") or [])
        else:
            raise ValueError(f"unsupported bench schema {version!r} in {path}")
    runs.append(_run_payload(records))
    path.write_text(
        json.dumps(
            {"schema_version": TRAJECTORY_SCHEMA_VERSION, "runs": runs}, indent=2
        )
        + "\n"
    )
    return path


def compare_to_baseline(
    current: Sequence[PerfRecord],
    baseline: Sequence[PerfRecord],
    *,
    max_regression: float = 3.0,
) -> list[str]:
    """Regression check: current throughput must stay within
    ``max_regression``x of the committed baseline, kernel by kernel.

    The committed baseline may come from a different machine, so absolute
    MB/s alone would flag hardware differences as regressions.  The frozen
    ``_reference_*`` implementations never change, so their wall times are
    a pure machine-speed probe: the median ratio of current-to-baseline
    reference times rescales every absolute floor to the current machine.
    A kernel then passes if its rescaled throughput is within the band, or
    — for kernels with a reference — if its speedup over that reference
    (same machine, same run) is within the band of the baseline's speedup.

    Kernels listed in :data:`TIGHTENED_GATES` use their (tighter) per-kernel
    factor instead of ``max_regression`` — their committed speedups have
    headroom, so a real regression shows up well before the generic band.

    Returns human-readable failure lines (empty = pass).  Kernels present
    on only one side are ignored — the gate compares, it doesn't enforce
    coverage.
    """
    if max_regression <= 1.0:
        raise ValueError(f"max_regression must be > 1, got {max_regression}")
    base_by_key = {(r.codec, r.op, r.shape_name): r for r in baseline}
    pairs = [
        (record, base)
        for record in current
        if (base := base_by_key.get((record.codec, record.op, record.shape_name)))
        is not None
    ]
    speed_ratios = [
        record.reference_seconds / base.reference_seconds
        for record, base in pairs
        if record.reference_seconds is not None and base.reference_seconds is not None
    ]
    machine_factor = float(np.median(speed_ratios)) if speed_ratios else 1.0
    failures = []
    for record, base in pairs:
        gate = min(
            max_regression, TIGHTENED_GATES.get((record.codec, record.op), max_regression)
        )
        floor = base.throughput_mb_s / gate / max(machine_factor, 1.0)
        if record.throughput_mb_s >= floor:
            continue
        if (
            record.speedup is not None
            and base.speedup is not None
            and record.speedup >= base.speedup / gate
        ):
            continue  # reference regressed identically: machine, not code
        failures.append(
            f"{record.codec}.{record.op} [{record.shape_name}]: "
            f"{record.throughput_mb_s:.1f} MB/s < floor {floor:.1f} MB/s "
            f"(baseline {base.throughput_mb_s:.1f} MB/s / {gate:g}x, "
            f"machine factor {machine_factor:.2f})"
        )
    return failures


def format_table(records: Sequence[PerfRecord]) -> str:
    """Human-readable throughput/speedup table."""
    header = f"{'codec':<12} {'op':<8} {'shape':<10} {'MB/s':>10} {'ref MB/s':>10} {'speedup':>8}"
    lines = [header, "-" * len(header)]
    for r in records:
        ref = "" if r.reference_seconds is None else f"{r.input_nbytes / r.reference_seconds / 1e6:10.1f}"
        spd = "" if r.speedup is None else f"{r.speedup:7.1f}x"
        alloc = ""
        if r.alloc_nbytes is not None and r.reference_alloc_nbytes is not None:
            alloc = f"  alloc {r.alloc_nbytes}B vs {r.reference_alloc_nbytes}B"
        lines.append(
            f"{r.codec:<12} {r.op:<8} {r.shape_name:<10} {r.throughput_mb_s:>10.1f} {ref:>10} {spd:>8}{alloc}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, help="write BENCH JSON here")
    parser.add_argument(
        "--append", type=Path, default=None,
        help="append this run to a v2 trajectory JSON (migrating v1 in place)",
    )
    parser.add_argument(
        "--check", type=Path, default=None, help="compare against a committed BENCH JSON"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small single-shape run (CI perf-smoke)"
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--regression-factor", type=float, default=3.0,
        help="fail --check when throughput drops more than this factor",
    )
    args = parser.parse_args(argv)
    shapes = SMOKE_SHAPES if args.smoke else PAPER_SHAPES
    records = run_suite(shapes, repeats=args.repeats)
    print(format_table(records))
    if args.out is not None:
        write_bench(records, args.out)
        print(f"[written to {args.out}]")
    if args.append is not None:
        append_run(records, args.append)
        print(f"[appended to {args.append}]")
    if args.check is not None:
        failures = compare_to_baseline(
            records, load_bench(args.check), max_regression=args.regression_factor
        )
        if failures:
            print(f"PERF REGRESSION vs {args.check}:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"perf-smoke OK vs {args.check} (within {args.regression_factor:g}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
