"""Throughput tracking for the compression hot paths (this repo's own claim).

Unlike the ``bench_fig*``/``bench_table*`` files, which regenerate results
of the *paper*, this benchmark tracks a property of the *reproduction*: the
vectorized codec kernels must stay NumPy-speed.  It times every hot kernel
on the paper's table shapes against the frozen seed implementations
(``_reference_*``), asserts the headline speedups of the vectorization PR
(>= 5x vector-LZ decode, >= 3x Huffman decode on the large shapes), and
checks the committed ``BENCH_compression.json`` trajectory point.

Append a new trajectory point with::

    PYTHONPATH=src python -m repro.profiling.perfbench --append BENCH_compression.json

CI's perf-smoke step runs the same harness with ``--smoke --check``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.profiling.perfbench import (
    PAPER_SHAPES,
    compare_to_baseline,
    format_table,
    load_bench,
    run_suite,
)

from conftest import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_compression.json"

#: the shapes whose payloads are large enough for throughput (rather than
#: per-call overhead) to dominate — where the PR's speedup claims live
LARGE_SHAPES = ("terabyte", "cluster")


@pytest.fixture(scope="module")
def records():
    return run_suite(repeats=9)


def _by_key(records):
    return {(r.codec, r.op, r.shape_name): r for r in records}


def test_report(records):
    write_result("perf_hotpaths", format_table(records))


def test_every_kernel_covered_on_every_shape(records):
    # Fabric-level rows (critpath, vector_lz_batch, shard_recompress,
    # shard_pull) carry their own geometry.
    keys = {(r.codec, r.op) for r in records if r.shape_name in PAPER_SHAPES}
    expected = {
        ("quantizer", "quantize"),
        ("vector_lz", "encode"),
        ("vector_lz", "decode"),
        ("huffman", "encode"),
        ("huffman", "decode"),
        ("hybrid", "compress"),
        ("hybrid", "decompress"),
        ("hybrid_obs", "compress"),
        ("hybrid_obs", "decompress"),
        ("lz4_like", "encode"),
        ("lz4_like", "decode"),
        ("fzgpu_like", "pack"),
        ("fzgpu_like", "unpack"),
        ("checksum", "frame"),
        ("checksum", "verify"),
        ("homomorphic_allreduce", "agg_quant"),
    }
    assert keys == expected
    fabric = {(r.codec, r.op) for r in records if r.shape_name not in PAPER_SHAPES}
    assert fabric == {
        ("critpath", "extract"),
        ("critpath", "speedup_if"),
        ("vector_lz_batch", "compress"),
        ("vector_lz_batch", "decompress"),
        ("shard_recompress", "churn0"),
        ("shard_recompress", "churn100"),
        ("shard_pull", "row1"),
        ("shard_pull", "rows32"),
    }
    for shape in PAPER_SHAPES:
        assert sum(r.shape_name == shape for r in records) == len(expected)


def _aggregate_speedup(records, codec: str, op: str, shapes=LARGE_SHAPES) -> float:
    """Throughput-weighted speedup over a set of shapes: total reference
    time over total vectorized time for the same decode workload."""
    rows = [
        r for r in records
        if r.codec == codec and r.op == op and r.shape_name in shapes
    ]
    assert rows and all(r.reference_seconds is not None for r in rows)
    return sum(r.reference_seconds for r in rows) / sum(r.seconds for r in rows)


def test_vector_lz_decode_speedup(records):
    """Tentpole claim: >= 5x over the seed's per-row decode loop on the
    paper's default (large) table shapes."""
    by_key = _by_key(records)
    aggregate = _aggregate_speedup(records, "vector_lz", "decode")
    assert aggregate >= 5.0, f"vector-LZ decode aggregate speedup {aggregate:.2f}"
    # Per-shape floor is looser than the aggregate claim: the 256 KB
    # terabyte shape is small enough that per-call overhead under system
    # load can shave a point off a best-of-9 timing (observed 1-in-3
    # dips below 5x with no code change).
    speedup = by_key[("vector_lz", "decode", "terabyte")].speedup
    assert speedup is not None and speedup >= 4.0, f"vector-LZ decode speedup {speedup}"
    for shape in LARGE_SHAPES:
        s = by_key[("vector_lz", "decode", shape)].speedup
        assert s is not None and s >= 3.0, f"vector-LZ decode [{shape}] speedup {s}"


def test_huffman_decode_speedup(records):
    """Tentpole claim: >= 3x over the seed's per-symbol jump-chain walk on
    the paper's default (large) table shapes."""
    by_key = _by_key(records)
    aggregate = _aggregate_speedup(records, "huffman", "decode")
    assert aggregate >= 3.0, f"Huffman decode aggregate speedup {aggregate:.2f}"
    for shape in LARGE_SHAPES:
        s = by_key[("huffman", "decode", shape)].speedup
        assert s is not None and s >= 2.0, f"Huffman decode [{shape}] speedup {s}"


def test_huffman_encode_speedup(records):
    """PR-3 satellite claim: two-queue code lengths + word-level
    ``pack_codes`` lift the encoder (the previously slowest kernel) by
    >= 1.5x over the seed's heap + per-bit-plane path on large shapes."""
    by_key = _by_key(records)
    aggregate = _aggregate_speedup(records, "huffman", "encode")
    assert aggregate >= 1.5, f"Huffman encode aggregate speedup {aggregate:.2f}"
    for shape in LARGE_SHAPES:
        s = by_key[("huffman", "encode", shape)].speedup
        assert s is not None and s >= 1.3, f"Huffman encode [{shape}] speedup {s}"


def test_end_to_end_rows_present(records):
    """The trajectory tracks full-framing compress()/decompress() too."""
    by_key = _by_key(records)
    for shape in PAPER_SHAPES:
        for op in ("compress", "decompress"):
            record = by_key[("hybrid", op, shape)]
            assert record.throughput_mb_s > 0


def test_shard_recompress_speedup(records):
    """Incremental shard re-encode claim: against the per-block loop a
    publication round used to run, an unchanged table (digests only) is
    >= 5x cheaper and a fully changed one (digests + stacked encode) is
    >= 1.5x cheaper — the floor the stacked route must clear to stay."""
    by_key = _by_key(records)
    for op, floor in (("churn0", 5.0), ("churn100", 1.5)):
        s = by_key[("shard_recompress", op, "4000x32")].speedup
        assert s is not None and s >= floor, f"shard_recompress.{op} speedup {s}"


def test_shard_pull_speedup(records):
    """Shard pull claim: ``pull`` decodes a stored block once per payload,
    so past the first call both rows time an index of the block's kept
    rows, against perfbench's reference, which decodes the block and then
    indexes it (what ``pull`` was before blocks were kept).  A one-row pull
    (what a replica's cache miss issues) must be >= 2x cheaper on a
    vector-LZ table and >= 1.5x on an entropy one, and a 32-row pull of one
    block must not lose (>= 0.8x, which leaves room for best-of-9 timing
    noise)."""
    by_key = _by_key(records)
    for codec, floor in (("vector_lz", 2.0), ("entropy", 1.5)):
        s = by_key[("shard_pull", "row1", f"{codec}_4000x32")].speedup
        assert s is not None and s >= floor, f"shard_pull.row1 [{codec}] speedup {s}"
        s = by_key[("shard_pull", "rows32", f"{codec}_4000x32")].speedup
        assert s is not None and s >= 0.8, f"shard_pull.rows32 [{codec}] speedup {s}"


def test_obs_instrumentation_overhead_bounded(records):
    """PR-6 satellite claim: enabling the observability runtime costs at
    most ~3% on the hybrid codec's hot path.  The hybrid_obs rows time the
    instrumented call with the runtime enabled against the same call
    disabled (interleaved, so load drift cannot masquerade as overhead);
    speedup = 1 / (1 + overhead).  The true per-call cost is two counter
    increments (~4 us against a multi-ms compress, <0.1%), but best-of
    timing on a shared box carries a few percent of noise either way, so
    the floors are noise-padded: the op aggregates pool both large shapes
    and the overall aggregate pools all four rows."""
    rows = [
        r for r in records
        if r.codec == "hybrid_obs" and r.shape_name in LARGE_SHAPES
    ]
    assert rows and all(r.reference_seconds is not None for r in rows)
    pooled = sum(r.reference_seconds for r in rows) / sum(r.seconds for r in rows)
    assert pooled >= 0.95, f"hybrid_obs pooled enabled/disabled ratio {pooled:.3f}"
    for op in ("compress", "decompress"):
        aggregate = _aggregate_speedup(records, "hybrid_obs", op)
        assert aggregate >= 0.90, f"hybrid_obs {op} enabled/disabled ratio {aggregate:.3f}"


def test_baseline_speedups_not_regressed(records):
    """The vectorized baselines must at least match their seed versions."""
    by_key = _by_key(records)
    for codec, op in (("lz4_like", "encode"), ("fzgpu_like", "pack"), ("fzgpu_like", "unpack")):
        for shape in LARGE_SHAPES:
            s = by_key[(codec, op, shape)].speedup
            assert s is not None and s >= 1.0, f"{codec}.{op} [{shape}] speedup {s}"


def test_committed_trajectory_point_exists():
    """BENCH_compression.json is the perf trajectory's first point: it must
    exist, parse, and cover the same kernels this suite measures."""
    assert BENCH_JSON.exists(), "run python -m repro.profiling.perfbench --append BENCH_compression.json"
    baseline = load_bench(BENCH_JSON)
    keys = {(r.codec, r.op, r.shape_name) for r in baseline}
    assert {("vector_lz", "decode", "terabyte"), ("huffman", "decode", "terabyte")} <= keys
    for record in baseline:
        assert record.seconds > 0 and record.throughput_mb_s > 0


def test_current_run_within_regression_gate(records):
    """The same gate CI applies: current throughput must not have fallen
    below the committed baseline by more than ``MAX_REGRESSION`` (2.5x) on
    any kernel."""
    baseline = load_bench(BENCH_JSON)
    failures = compare_to_baseline(records, baseline)
    assert not failures, "\n".join(failures)
