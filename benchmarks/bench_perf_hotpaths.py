"""Throughput tracking for the compression hot paths (this repo's own claim).

Unlike the ``bench_fig*``/``bench_table*`` files, which regenerate results
of the *paper*, this benchmark tracks a property of the *reproduction*: the
vectorized codec kernels must stay NumPy-speed.  It times every hot kernel
on the paper's table shapes against the frozen seed implementations
(``_reference_*``), asserts the headline speedups of the vectorization PR
(>= 5x vector-LZ decode, >= 3x Huffman decode on the large shapes), and
checks the committed ``BENCH_compression.json`` trajectory point.

Regenerate the committed baseline with::

    PYTHONPATH=src python -m repro.profiling.perfbench --out BENCH_compression.json

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
        ("hybrid_pinned", "compress"),
        ("hybrid_obs", "compress"),
        ("hybrid_obs", "decompress"),
        ("lz4_like", "encode"),
        ("lz4_like", "decode"),
        ("fzgpu_like", "pack"),
        ("fzgpu_like", "unpack"),
        ("checksum", "frame"),
        ("checksum", "verify"),
        ("serve_degraded", "pull"),
        ("parallel_hybrid", "workers1"),
        ("parallel_hybrid", "workers2"),
        ("parallel_hybrid", "workers4"),
        ("zero_copy", "frame"),
        ("zero_copy", "verify"),
        ("zero_copy", "compress_into"),
        ("homomorphic_allreduce", "agg_quant"),
        ("homomorphic_allreduce", "agg_count"),
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


def test_hybrid_pinned_speedup(records):
    """PR-5 satellite claim (ROADMAP PR 2/3 follow-up): auto mode with
    ``pin_refresh`` replays the pinned winning leg instead of running the
    try-both trial per call, so steady-state keyed compression beats the
    per-call auto path on the large shapes.  The floor is conservative:
    pinning always skips one of two legs, but the skipped (losing) leg can
    be the cheaper one."""
    by_key = _by_key(records)
    aggregate = _aggregate_speedup(records, "hybrid_pinned", "compress")
    assert aggregate >= 1.2, f"hybrid_pinned aggregate speedup {aggregate:.2f}"
    # Per-shape floors only on the large shapes, per the file convention:
    # the kaggle shape runs in the per-call-overhead regime where run
    # noise can push best-of timings either way.
    for shape in LARGE_SHAPES:
        s = by_key[("hybrid_pinned", "compress", shape)].speedup
        assert s is not None and s >= 1.0, f"hybrid_pinned [{shape}] speedup {s}"


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
    """Row-granular pull claim: against the block-decode-then-index loop
    ``pull`` used to be, a one-row pull (what a replica's cache miss issues)
    is >= 2x cheaper on a vector-LZ table and >= 1.5x on an entropy one
    (measured 2.4-3.2x and 1.9-2.2x; the header parse both sides share —
    ~15 of a vector-LZ pull's ~45 us — caps it near 3x), and a 32-row pull,
    which is past ``ROW_DECODE_MAX_ROWS`` and takes the block decode, costs
    the same (>= 0.8x: the two sides run the same decoder, so what is
    left is this box's best-of-9 noise).  The pair brackets the crossover
    constant: sent to the row kernel, 32 vector-LZ rows would read ~0.7x."""
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


def test_parallel_hybrid_efficiency(records):
    """Raw-speed PR tentpole claim: the multicore executor reaches >= 1.5x
    over the serial loop at 4 workers on the paper's largest shapes —
    *where 4 cores exist*.  On smaller boxes (CI containers are often
    single-core) the rows still land in the trajectory, pinned only to a
    sanity floor: parallel dispatch must not collapse below ~1/3 of serial
    throughput, and the speedup column (parallel efficiency vs the serial
    loop, measured interleaved) must be present on every row."""
    from repro.compression.parallel import available_workers

    by_key = _by_key(records)
    for shape in PAPER_SHAPES:
        for workers in (1, 2, 4):
            record = by_key[("parallel_hybrid", f"workers{workers}", shape)]
            assert record.speedup is not None and record.speedup > 0
            if shape in LARGE_SHAPES:
                # Small-shape (kaggle) dispatch overhead is all overhead
                # regime; the floor only means something where payloads
                # amortize it.
                assert record.speedup > 0.3, (
                    f"parallel_hybrid workers{workers} [{shape}] efficiency {record.speedup}"
                )
    if available_workers() >= 4:
        aggregate = _aggregate_speedup(records, "parallel_hybrid", "workers4")
        assert aggregate >= 1.5, f"workers4 aggregate speedup {aggregate:.2f}"


def test_zero_copy_allocations_reduced(records):
    """Raw-speed PR satellite claim: the pooled/view framing paths allocate
    a fraction of what the copying seed implementations do.  Peak
    tracemalloc bytes per call: the envelope paths drop by >= 4x; the
    end-to-end ``compress_into`` path (whose peak is codec-internal
    scratch, not framing) must at least not regress."""
    by_key = _by_key(records)
    for shape in LARGE_SHAPES:
        for op in ("frame", "verify"):
            record = by_key[("zero_copy", op, shape)]
            assert record.alloc_nbytes is not None
            assert record.reference_alloc_nbytes is not None
            assert record.alloc_nbytes * 4 <= record.reference_alloc_nbytes, (
                f"zero_copy.{op} [{shape}] allocates {record.alloc_nbytes}B "
                f"vs reference {record.reference_alloc_nbytes}B"
            )
        record = by_key[("zero_copy", "compress_into", shape)]
        assert record.alloc_nbytes is not None
        assert record.reference_alloc_nbytes is not None
        assert record.alloc_nbytes <= record.reference_alloc_nbytes * 1.01


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
    assert BENCH_JSON.exists(), "run python -m repro.profiling.perfbench --out BENCH_compression.json"
    baseline = load_bench(BENCH_JSON)
    keys = {(r.codec, r.op, r.shape_name) for r in baseline}
    assert {("vector_lz", "decode", "terabyte"), ("huffman", "decode", "terabyte")} <= keys
    for record in baseline:
        assert record.seconds > 0 and record.throughput_mb_s > 0


def test_current_run_within_regression_gate(records):
    """The same gate CI applies: current throughput must not have fallen
    below the committed baseline by more than 3x generically — or 2.5x on
    the kernels in ``TIGHTENED_GATES``, whose committed speedups have
    headroom to spare."""
    baseline = load_bench(BENCH_JSON)
    failures = compare_to_baseline(records, baseline, max_regression=3.0)
    assert not failures, "\n".join(failures)
