"""Throughput benchmark harness for the compression hot paths.

The paper's speedup claim (Figs. 11/12) only holds if compression plus wire
time beats the raw all-to-all, so codec throughput is a first-class,
*tracked* quantity in this reproduction.  This module times the hot
kernels — quantization, vector-LZ encode/decode, Huffman encode/decode, and
the byte-LZ / bit-plane baselines — on the paper's table shapes, against
the frozen seed implementations (``_reference_*``), and persists the
results as machine-readable JSON (``BENCH_compression.json`` at the repo
root) so every subsequent change has a trajectory to compare against.

The suite is a table of rows and one runner.  Four builders yield the
rows — :func:`_codec_rows` per table shape, then the fixed-geometry
:func:`_stack_rows`, :func:`_shard_rows` and :func:`_critpath_rows` — each
a :data:`Row` ``(codec, op, shape_name, rows, dim, input_nbytes, fn,
ref)``.  :func:`_measure` times every row alike: best of N calls of
``fn``, alternated call by call with ``ref`` whenever the row has one.

Three entry points:

* :func:`run_suite` — measure, returning one :class:`PerfRecord` per row.
* :func:`append_run` / :func:`load_trajectory` / :func:`load_bench` —
  extend / read the trajectory JSON (``load_bench`` is its latest run).
* :func:`compare_to_baseline` — the one perf gate, run by CI's perf-smoke
  step: fails on a > :data:`MAX_REGRESSION`x throughput loss per kernel.

CLI::

    python -m repro.profiling.perfbench --append BENCH_compression.json
    python -m repro.profiling.perfbench --smoke --check BENCH_compression.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
from repro.compression.quantizer import quantize_batch
from repro.compression.homomorphic import agg_sum
from repro.compression.registry import decompress_any, get_compressor
from repro.compression.serialization import (
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
    "MAX_REGRESSION",
    "make_lookup_batch",
    "run_suite",
    "load_bench",
    "load_trajectory",
    "append_run",
    "compare_to_baseline",
    "format_table",
    "main",
]

#: trajectory files: ``{"schema_version": 2, "runs": [run, run, ...]}``
#: where each run is an environment stanza plus its ``records`` — one
#: entry per landed change, oldest first, one line per record
TRAJECTORY_SCHEMA = 2

#: the perf gate: a kernel fails when its throughput falls more than this
#: factor below the baseline's.  Replaying the committed trajectory (each
#: run against the one before it) flags no run, and a 2.6x slowdown of
#: any one kernel of the latest run, judged against itself, is caught.
MAX_REGRESSION = 2.5

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

#: one row of the suite: ``(codec, op, shape_name, rows, dim, input_nbytes,
#: fn, ref)`` — the record's key and geometry, the timed call, and the
#: reference it is timed against (``None`` for a row without one)
Row = tuple[str, str, str, int, int, int, Callable[[], object], Callable[[], object] | None]


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


#: hot embedding rows a lookup batch draws from
LOOKUP_POOL = 64
#: share of a lookup batch's rows that are one-off cold rows
COLD_FRACTION = 0.1


def make_lookup_batch(rows: int, dim: int) -> np.ndarray:
    """A DLRM-like lookup batch: hot rows recur with a skewed distribution.

    Mirrors the unbalanced query pattern the vector-LZ encoder exploits
    (Section III-D): a :data:`LOOKUP_POOL` of embedding rows sampled
    Zipf-style with per-lookup noise well below the default error bound (so
    quantization homogenizes the repeats, the paper's vector-homogenization
    effect), plus a :data:`COLD_FRACTION` of one-off rows that stay literals.
    """
    rng = np.random.default_rng(_SEED)
    base = rng.normal(0.0, 0.1, size=(LOOKUP_POOL, dim)).astype(np.float32)
    ranks = rng.zipf(1.5, size=rows)
    picks = np.minimum(ranks - 1, LOOKUP_POOL - 1).astype(np.int64)
    noise = rng.normal(0.0, 1e-4, size=(rows, dim)).astype(np.float32)
    batch = base[picks] + noise
    is_cold = rng.random(rows) < COLD_FRACTION
    n_cold = int(is_cold.sum())
    if n_cold:
        batch[is_cold] = rng.normal(0.0, 0.1, size=(n_cold, dim)).astype(np.float32)
    return batch


def _measure(row: Row, repeats: int) -> PerfRecord:
    """Best-of-``repeats`` wall time of one row's call and, when the row
    has a reference, of the reference too — the two alternated call by
    call, so both minima come from the same load/frequency window.
    Sequential timing (all of ``fn`` then all of ``ref``) lets load drift
    between the two windows masquerade as a speedup difference — fatal
    when the real gap is small, as for the instrumentation-overhead rows."""
    codec, op, shape_name, rows, dim, nbytes, fn, ref = row
    calls = [fn] if ref is None else [fn, ref]
    best = [float("inf")] * len(calls)
    for _ in range(max(1, repeats)):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - t0)
    seconds = best[0]
    ref_seconds = None if ref is None else best[1]
    return PerfRecord(
        codec, op, shape_name, rows, dim, nbytes, seconds, nbytes / seconds / 1e6,
        ref_seconds, None if ref_seconds is None else ref_seconds / seconds,
    )


def _codec_rows(shape_name: str, rows: int, dim: int) -> Iterator[Row]:
    """Every codec kernel on one ``rows x dim`` lookup batch."""
    batch = make_lookup_batch(rows, dim)
    eb = DEFAULT_ERROR_BOUND

    def row(codec: str, op: str, fn, ref) -> Row:
        return codec, op, shape_name, rows, dim, batch.nbytes, fn, ref

    yield row("quantizer", "quantize", lambda: quantize_batch(batch, eb), None)
    quantized = quantize_batch(batch, eb)
    codes = quantized.codes

    # --- vector-LZ (the paper's LZ leg) ---
    yield row("vector_lz", "encode", lambda: vector_lz_encode(codes), None)
    lz_stream = vector_lz_encode(codes)
    yield row(
        "vector_lz", "decode",
        lambda: vector_lz_decode(lz_stream),
        lambda: _reference_vector_lz_decode(lz_stream),
    )

    # --- optimized Huffman (the paper's entropy leg) ---
    alphabet = quantized.alphabet_size
    yield row(
        "huffman", "encode",
        lambda: huffman_encode(codes, alphabet),
        lambda: _reference_huffman_encode(codes, alphabet),
    )
    huff_stream = huffman_encode(codes, alphabet)
    yield row(
        "huffman", "decode",
        lambda: huffman_decode(huff_stream),
        lambda: _reference_huffman_decode(huff_stream),
    )

    # --- generic byte-LZ baseline (nvCOMP-LZ4 family) ---
    raw = batch.tobytes()
    yield row(
        "lz4_like", "encode",
        lambda: lz77_encode_bytes(raw),
        lambda: _reference_lz77_encode_bytes(raw),
    )
    byte_stream = lz77_encode_bytes(raw)
    yield row(
        "lz4_like", "decode",
        lambda: lz77_decode_bytes(byte_stream, len(raw)),
        lambda: _reference_lz77_decode_bytes(byte_stream, len(raw)),
    )

    # --- end-to-end hybrid codec, framing included: both legs and the
    # smaller payload kept, the codec of Fig. 11, Table V and quickstart
    # (the training pipeline encodes with the plan's one leg) ---
    hybrid = HybridCompressor()
    yield row("hybrid", "compress", lambda: hybrid.compress(batch, eb), None)
    hybrid_payload = hybrid.compress(batch, eb)
    yield row("hybrid", "decompress", lambda: hybrid.decompress(hybrid_payload), None)

    # --- CRC32 checksum envelope (the fault-tolerance framing): what
    # integrity costs on top of the codec.  verify returns a view of the
    # body; its reference is the frozen strip that copies it out.  The
    # serve_degraded/pull row is one faultable shard pull — verify the
    # envelope, then the registry-level decode that strips it — against
    # the bare decode, so the speedup column reads as the degraded-fabric
    # overhead. ---
    framed_payload = frame_with_checksum(hybrid_payload)
    yield row("checksum", "frame", lambda: frame_with_checksum(hybrid_payload), None)
    yield row(
        "checksum", "verify",
        lambda: verify_checksum_frame(framed_payload),
        lambda: _reference_verify_checksum_frame(framed_payload),
    )

    def _degraded_pull():
        verify_checksum_frame(framed_payload)
        return decompress_any(framed_payload)

    yield row("serve_degraded", "pull", _degraded_pull, lambda: hybrid.decompress(hybrid_payload))

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

    yield row(
        "hybrid_obs", "compress",
        lambda: _with_obs(lambda: hybrid.compress(batch, eb)),
        lambda: hybrid.compress(batch, eb),
    )
    yield row(
        "hybrid_obs", "decompress",
        lambda: _with_obs(lambda: hybrid.decompress(hybrid_payload)),
        lambda: hybrid.decompress(hybrid_payload),
    )

    # --- FZ-GPU-like bit-plane baseline ---
    unsigned = zigzag_encode(quantized.codes.ravel() + quantized.code_min)
    yield row(
        "fzgpu_like", "pack",
        lambda: pack_bitplanes(unsigned, 256),
        lambda: _reference_pack_bitplanes(unsigned, 256),
    )
    bitmap, payload, n_blocks = pack_bitplanes(unsigned, 256)
    yield row(
        "fzgpu_like", "unpack",
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
    q_payload = quant.compress(half, eb)

    def _quant_hop():
        total = quant.decompress(q_payload) + quant.decompress(q_payload)
        return quant.compress(total, eb)

    yield row(
        "homomorphic_allreduce", "agg_quant", lambda: agg_sum(q_payload, q_payload), _quant_hop
    )
    count = get_compressor("count_sum")
    c_payload = count.compress(half, None)

    def _count_hop():
        total = count.decompress(c_payload) + count.decompress(c_payload)
        return count.compress(total, None)

    yield row(
        "homomorphic_allreduce", "agg_count", lambda: agg_sum(c_payload, c_payload), _count_hop
    )


def _stack_rows() -> Iterator[Row]:
    """The fused per-table stage ①/④: all destination slices of one table
    (32 ranks x 128 local rows x dim 64, the headline exchange) through the
    batched vector-LZ kernels in one pass.  Reference: the serial per-slice
    loop producing the same payloads, so the speedup column is what
    amortising NumPy's per-call overhead over the stack buys."""
    lz = VectorLZCompressor()
    n_slices, local_rows, dim = STACK_SHAPE
    stack = make_lookup_batch(n_slices * local_rows, dim).reshape(STACK_SHAPE)
    geometry = ("x".join(map(str, STACK_SHAPE)), n_slices * local_rows, dim, stack.nbytes)
    yield (
        "vector_lz_batch", "compress", *geometry,
        lambda: lz.compress_stack(stack, DEFAULT_ERROR_BOUND),
        lambda: [lz.compress(piece, DEFAULT_ERROR_BOUND) for piece in stack],
    )
    stack_payloads = lz.compress_stack(stack, DEFAULT_ERROR_BOUND)
    yield (
        "vector_lz_batch", "decompress", *geometry,
        lambda: lz.decompress_stack(stack_payloads),
        lambda: [decompress_any(payload) for payload in stack_payloads],
    )


def _shard_rows() -> Iterator[Row]:
    """The shard server's write path (re-encode) and read path (pulls)."""
    from repro.serve.shard_server import EmbeddingShardServer

    # --- incremental shard re-encode: one ``set_table`` of a vector-LZ
    # table against the per-block loop that used to run every publication
    # round.  churn0 re-publishes unchanged values (digest only, the
    # common round); churn100 changes every block (digest + one stacked
    # encode of the full-size blocks + the ragged tail). ---
    lz = VectorLZCompressor()
    shard_rows, shard_dim = SHARD_TABLE_SHAPE
    shard_values = make_lookup_batch(shard_rows, shard_dim)
    shard = EmbeddingShardServer(
        {0: shard_values}, DEFAULT_ERROR_BOUND, "vector_lz", rows_per_block=SHARD_ROWS_PER_BLOCK
    )

    def _per_block_loop():
        return [
            lz.compress(shard_values[lo : lo + SHARD_ROWS_PER_BLOCK], DEFAULT_ERROR_BOUND)
            for lo in range(0, shard_rows, SHARD_ROWS_PER_BLOCK)
        ]

    # every call publishes the table the shard does not hold
    churn = itertools.cycle([shard_values + np.float32(0.5), shard_values])
    shard_name = f"{shard_rows}x{shard_dim}"
    geometry = (shard_name, shard_rows, shard_dim, shard_values.nbytes)
    yield (
        "shard_recompress", "churn0", *geometry,
        lambda: shard.set_table(0, shard_values), _per_block_loop,
    )
    yield (
        "shard_recompress", "churn100", *geometry,
        lambda: shard.set_table(0, next(churn)), _per_block_loop,
    )

    # --- row-granular shard pulls: ``pull`` of one row (what a replica's
    # cache miss issues) and of 32 rows of one block, on a vector-LZ and an
    # entropy table, against the block-decode-then-index loop ``pull`` used
    # to be.  ``pull`` decodes a block once per payload, so past the first
    # call both rows time an index of the kept rows. ---
    pull_rng = np.random.default_rng(_SEED)
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
            {0: shard_values}, DEFAULT_ERROR_BOUND, pull_codec, rows_per_block=SHARD_ROWS_PER_BLOCK
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
            yield (
                "shard_pull", op, f"{pull_codec}_{shard_name}", shard_rows, shard_dim,
                sum(ids.size for ids in requests) * shard_dim * 4,
                lambda: [pulled.pull(0, ids) for ids in requests],
                lambda: [_block_decode_then_index(ids) for ids in requests],
            )


def _critpath_rows() -> Iterator[Row]:
    """The critical-path analyzer: dependency-DAG reconstruction plus the
    walk-back over a chunk-pipelined exchange timeline — the
    repro.obs.critpath hot path the obs-smoke job runs over the
    day-in-the-life trace.  The rows/dim columns carry the fabric (ranks x
    chunks) and input_nbytes the chrome-trace JSON the analyzer would
    otherwise be fed from disk."""
    from repro.dist import IB_HDR_LIKE, NVLINK_LIKE, EventCategory, NetworkModel, Topology
    from repro.dist.simulator import ClusterSimulator
    from repro.obs.critpath import TimelineDag, extract_critical_path

    # --- a small fabric: 8 ranks x 4 chunks ---
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
    yield (
        "critpath", "extract", "fabric8x4", dag_ranks, dag_chunks, trace_nbytes,
        lambda: extract_critical_path(dag_sim.timeline), None,
    )

    # --- the same analyzer on the shape ``bench_e2e``'s ``exchange_engine``
    # world has — 16 x 8 hierarchical ranks, 8 chunks, 4 rounds each closed
    # by an all-reduce: 13 312 events, 8 704 of them carrying release edges
    # — where the walk visits ~50 events and ``speedup_if`` (timed from a
    # fresh DAG: columns + plan + one forward pass) reschedules all of
    # them. ---
    big_nodes, big_gpus, big_chunks = 16, 8, 8
    big_ranks = big_nodes * big_gpus
    big_rng = np.random.default_rng(_SEED)
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
    geometry = ("fabric128x8", big_ranks, big_chunks, big_nbytes)
    yield ("critpath", "extract", *geometry, lambda: extract_critical_path(big_sim.timeline), None)
    yield (
        "critpath", "speedup_if", *geometry,
        lambda: TimelineDag.from_timeline(big_sim.timeline).speedup_if(EventCategory.COMPRESS, 2.0),
        None,
    )


def run_suite(
    shapes: dict[str, tuple[int, int]] | None = None, *, repeats: int = 5
) -> list[PerfRecord]:
    """Time every row: the codec rows on each shape (default
    :data:`PAPER_SHAPES`), then the stack, shard and critpath rows, whose
    fixed geometry ignores the shape sweep.  One record per row."""
    shapes = PAPER_SHAPES if shapes is None else shapes
    rows = itertools.chain(
        *(_codec_rows(name, n_rows, dim) for name, (n_rows, dim) in shapes.items()),
        _stack_rows(),
        _shard_rows(),
        _critpath_rows(),
    )
    return [_measure(row, repeats) for row in rows]


# --------------------------------------------------------------- persistence


def _read_runs(path: str | Path) -> list[dict]:
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != TRAJECTORY_SCHEMA:
        raise ValueError(f"unsupported bench schema {version!r} in {path}")
    return list(payload.get("runs") or [])


def load_trajectory(path: str | Path) -> list[list[PerfRecord]]:
    """All runs in a trajectory file, oldest first."""
    return [[PerfRecord(**r) for r in run["records"]] for run in _read_runs(path)]


def load_bench(path: str | Path) -> list[PerfRecord]:
    """The latest run of a trajectory file: the baseline ``--check``
    compares against."""
    runs = load_trajectory(path)
    if not runs:
        raise ValueError(f"trajectory {path} has no runs")
    return runs[-1]


def append_run(records: Iterable[PerfRecord], path: str | Path) -> Path:
    """Append one run, stamped with the current environment, to a
    trajectory file (starting a fresh trajectory if the file does not
    exist); earlier runs keep their own environment stanzas.  The file
    holds one line per record, so a landed run is one block of added
    lines."""
    path = Path(path)
    runs = _read_runs(path) if path.exists() else []
    runs.append(
        {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "records": [asdict(r) for r in records],
        }
    )
    blocks = []
    for run in runs:
        stanza = json.dumps({key: value for key, value in run.items() if key != "records"})
        lines = ",\n".join(f"    {json.dumps(record)}" for record in run["records"])
        # the stanza's object, reopened (``[:-1]``) to take the records
        blocks.append(f'  {stanza[:-1]}, "records": [\n{lines}\n  ]}}')
    path.write_text(
        f'{{"schema_version": {TRAJECTORY_SCHEMA}, "runs": [\n' + ",\n".join(blocks) + "\n]}\n"
    )
    return path


def compare_to_baseline(
    current: Sequence[PerfRecord], baseline: Sequence[PerfRecord]
) -> list[str]:
    """Regression check: current throughput must not fall more than
    :data:`MAX_REGRESSION` times below the committed baseline's, kernel by
    kernel.

    The committed baseline may come from a different machine, so absolute
    MB/s alone would flag hardware differences as regressions.  The frozen
    ``_reference_*`` implementations never change, so their wall times are
    a pure machine-speed probe: the median ratio of current-to-baseline
    reference times rescales every absolute floor to the current machine.
    A kernel then passes if its rescaled throughput is within the band, or
    — for kernels with a reference — if its speedup over that reference
    (same machine, same run) is within the band of the baseline's speedup.

    Returns human-readable failure lines (empty = pass).  Kernels present
    on only one side are ignored — the gate compares, it doesn't enforce
    coverage.
    """
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
        floor = base.throughput_mb_s / MAX_REGRESSION / max(machine_factor, 1.0)
        if record.throughput_mb_s >= floor:
            continue
        if (
            record.speedup is not None
            and base.speedup is not None
            and record.speedup >= base.speedup / MAX_REGRESSION
        ):
            continue  # reference regressed identically: machine, not code
        failures.append(
            f"{record.codec}.{record.op} [{record.shape_name}]: "
            f"{record.throughput_mb_s:.1f} MB/s < floor {floor:.1f} MB/s "
            f"(baseline {base.throughput_mb_s:.1f} MB/s / {MAX_REGRESSION:g}x, "
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
        lines.append(
            f"{r.codec:<12} {r.op:<8} {r.shape_name:<10} {r.throughput_mb_s:>10.1f} {ref:>10} {spd:>8}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--append", type=Path, default=None, help="append this run to a trajectory JSON"
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help=f"fail on a >{MAX_REGRESSION:g}x loss against a trajectory's latest run",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small single-shape run (CI perf-smoke)"
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    shapes = SMOKE_SHAPES if args.smoke else PAPER_SHAPES
    records = run_suite(shapes, repeats=args.repeats)
    print(format_table(records))
    if args.append is not None:
        append_run(records, args.append)
        print(f"[appended to {args.append}]")
    if args.check is not None:
        failures = compare_to_baseline(records, load_bench(args.check))
        if failures:
            print(f"PERF REGRESSION vs {args.check}:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"perf-smoke OK vs {args.check} (within {MAX_REGRESSION:g}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
