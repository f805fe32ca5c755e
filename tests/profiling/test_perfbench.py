"""Tests for the codec throughput benchmark harness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.profiling.perfbench import (
    PAPER_SHAPES,
    PerfRecord,
    append_run,
    compare_to_baseline,
    format_table,
    load_bench,
    load_trajectory,
    make_lookup_batch,
    run_suite,
    write_bench,
    write_trajectory,
)

TINY = {"tiny": (32, 8)}


@pytest.fixture(scope="module")
def tiny_records():
    return run_suite(TINY, repeats=1)


class TestLookupBatch:
    def test_shape_dtype_and_determinism(self):
        a = make_lookup_batch(64, 16, seed=1)
        b = make_lookup_batch(64, 16, seed=1)
        assert a.shape == (64, 16) and a.dtype == np.float32
        np.testing.assert_array_equal(a, b)

    def test_hot_rows_recur(self):
        batch = make_lookup_batch(256, 8, pool=4, cold_fraction=0.0)
        from repro.compression.quantizer import quantize_batch
        from repro.compression.vector_lz import find_vector_matches

        codes = quantize_batch(batch, 1e-2).codes
        is_match, _ = find_vector_matches(codes, 255)
        assert is_match.sum() > 200

    def test_cold_fraction_adds_literals(self):
        hot = make_lookup_batch(256, 8, pool=4, cold_fraction=0.0, seed=3)
        mixed = make_lookup_batch(256, 8, pool=4, cold_fraction=0.5, seed=3)
        from repro.compression.quantizer import quantize_batch
        from repro.compression.vector_lz import find_vector_matches

        hot_matches = find_vector_matches(quantize_batch(hot, 1e-2).codes, 255)[0].sum()
        mixed_matches = find_vector_matches(quantize_batch(mixed, 1e-2).codes, 255)[0].sum()
        assert mixed_matches < hot_matches


class TestRunSuite:
    def test_records_have_positive_timings(self, tiny_records):
        assert tiny_records
        for record in tiny_records:
            assert record.seconds > 0
            assert record.throughput_mb_s > 0
        # Every shape-swept kernel carries the requested geometry; the
        # fabric-level rows (critpath, vector_lz_batch, shard_recompress,
        # shard_pull) carry their own.
        for record in tiny_records:
            if record.codec in ("critpath", "vector_lz_batch", "shard_recompress", "shard_pull"):
                continue
            assert record.shape_name == "tiny"
            assert record.input_nbytes == 32 * 8 * 4

    def test_critpath_rows_present_once(self, tiny_records):
        """The DAG-extraction rows ride along regardless of the shape
        sweep — the perfbench 'critpath' satellite: the small fabric, and
        the ``exchange_engine`` benchmark's shape for both the walk and
        the what-if."""
        rows = {(r.op, r.shape_name): r for r in tiny_records if r.codec == "critpath"}
        assert sorted(rows) == [
            ("extract", "fabric128x8"),
            ("extract", "fabric8x4"),
            ("speedup_if", "fabric128x8"),
        ]
        assert sum(r.codec == "critpath" for r in tiny_records) == len(rows)
        small = rows[("extract", "fabric8x4")]
        assert small.rows == 8 and small.dim == 4  # ranks x chunks
        for op in ("extract", "speedup_if"):
            row = rows[(op, "fabric128x8")]
            assert row.rows == 128 and row.dim == 8
        for row in rows.values():
            assert row.input_nbytes > 0  # the chrome-trace JSON payload size

    def test_batch_rows_present_once(self, tiny_records):
        """The fused stage-①/④ rows ride along regardless of the shape
        sweep, timed against the serial per-slice loop."""
        rows = {r.op: r for r in tiny_records if r.codec == "vector_lz_batch"}
        assert sorted(rows) == ["compress", "decompress"]
        for row in rows.values():
            assert row.shape_name == "32x128x64"
            assert (row.rows, row.dim, row.input_nbytes) == (4096, 64, 4096 * 64 * 4)
            assert row.reference_seconds is not None and row.speedup > 0

    def test_shard_recompress_rows_present_once(self, tiny_records):
        """The incremental re-encode rows ride along regardless of the
        shape sweep, timed against the per-block loop."""
        rows = {r.op: r for r in tiny_records if r.codec == "shard_recompress"}
        assert sorted(rows) == ["churn0", "churn100"]
        for row in rows.values():
            assert row.shape_name == "4000x32"
            assert (row.rows, row.dim, row.input_nbytes) == (4000, 32, 4000 * 32 * 4)
            assert row.reference_seconds is not None and row.speedup > 0

    def test_shard_pull_rows_present_once(self, tiny_records):
        """The row-granular pull rows ride along regardless of the shape
        sweep: one row and 32 rows of a block, on a vector-LZ and an
        entropy table, timed against the block-decode-then-index loop."""
        rows = {(r.op, r.shape_name): r for r in tiny_records if r.codec == "shard_pull"}
        assert sorted(rows) == [
            ("row1", "entropy_4000x32"),
            ("row1", "vector_lz_4000x32"),
            ("rows32", "entropy_4000x32"),
            ("rows32", "vector_lz_4000x32"),
        ]
        for (op, _), row in rows.items():
            pulled_rows = 64 * (1 if op == "row1" else 32)  # 64 pulls a call
            assert (row.rows, row.dim, row.input_nbytes) == (4000, 32, pulled_rows * 32 * 4)
            assert row.reference_seconds is not None and row.speedup > 0

    def test_reference_ops_carry_speedup(self, tiny_records):
        with_ref = [r for r in tiny_records if r.reference_seconds is not None]
        assert {(r.codec, r.op) for r in with_ref} >= {
            ("vector_lz", "decode"),
            ("huffman", "decode"),
            ("lz4_like", "encode"),
        }
        for record in with_ref:
            assert record.speedup == pytest.approx(
                record.reference_seconds / record.seconds
            )

    def test_reference_can_be_skipped(self):
        records = run_suite(TINY, repeats=1, include_reference=False)
        assert all(r.reference_seconds is None and r.speedup is None for r in records)

    def test_paper_shapes_are_the_default_geometry(self):
        assert PAPER_SHAPES["kaggle"] == (128, 32)
        assert PAPER_SHAPES["terabyte"] == (2048, 32)


class TestPersistence:
    def test_json_roundtrip(self, tiny_records, tmp_path):
        path = write_bench(tiny_records, tmp_path / "bench.json")
        loaded = load_bench(path)
        assert loaded == tiny_records
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert "numpy" in payload and "python" in payload

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "records": []}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)
        with pytest.raises(ValueError, match="schema"):
            load_trajectory(path)


class TestTrajectory:
    """v2 trajectory files: one run per landed change, oldest first."""

    def _runs(self, tiny_records):
        from dataclasses import replace

        older = [
            replace(r, throughput_mb_s=r.throughput_mb_s * 0.9)
            for r in tiny_records
        ]
        return [older, list(tiny_records)]

    def test_write_load_round_trip(self, tiny_records, tmp_path):
        runs = self._runs(tiny_records)
        path = write_trajectory(runs, tmp_path / "traj.json")
        loaded = load_trajectory(path)
        assert loaded == runs
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 2
        assert all("python" in run for run in payload["runs"])

    def test_load_bench_on_trajectory_returns_latest_run(self, tiny_records, tmp_path):
        runs = self._runs(tiny_records)
        path = write_trajectory(runs, tmp_path / "traj.json")
        assert load_bench(path) == runs[-1]

    def test_load_bench_rejects_empty_trajectory(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema_version": 2, "runs": []}))
        with pytest.raises(ValueError, match="no runs"):
            load_bench(path)
        assert load_trajectory(path) == []

    def test_v1_file_is_a_one_run_trajectory(self, tiny_records, tmp_path):
        path = write_bench(tiny_records, tmp_path / "v1.json")
        assert load_trajectory(path) == [tiny_records]

    def test_append_migrates_v1_in_place(self, tiny_records, tmp_path):
        """The committed BENCH migration path: appending to a v1 file
        turns it into a v2 trajectory whose first run keeps the original
        records and environment stanza."""
        path = write_bench(tiny_records, tmp_path / "bench.json")
        v1_payload = json.loads(path.read_text())
        append_run(tiny_records, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 2
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["records"] == v1_payload["records"]
        assert payload["runs"][0]["python"] == v1_payload["python"]
        assert load_bench(path) == tiny_records
        assert load_trajectory(path) == [tiny_records, tiny_records]

    def test_append_creates_fresh_trajectory(self, tiny_records, tmp_path):
        path = append_run(tiny_records, tmp_path / "new.json")
        assert load_trajectory(path) == [tiny_records]
        assert json.loads(path.read_text())["schema_version"] == 2

    def test_append_extends_v2(self, tiny_records, tmp_path):
        path = tmp_path / "traj.json"
        write_trajectory([tiny_records], path)
        append_run(tiny_records, path)
        append_run(tiny_records, path)
        assert len(load_trajectory(path)) == 3

    def test_append_rejects_unknown_schema(self, tiny_records, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 7}))
        with pytest.raises(ValueError, match="schema"):
            append_run(tiny_records, path)

    def test_committed_bench_is_a_loadable_trajectory(self):
        """The repo-root BENCH_compression.json is the sentry's history;
        it must parse as a multi-run trajectory with a stable kernel set
        in its latest run."""
        from pathlib import Path

        bench = Path(__file__).resolve().parents[2] / "BENCH_compression.json"
        runs = load_trajectory(bench)
        assert len(runs) >= 3  # enough history for the sentry's min_points
        latest = {(r.codec, r.op, r.shape_name) for r in runs[-1]}
        assert ("critpath", "extract", "fabric8x4") in latest


def _record(codec="huffman", op="decode", shape="terabyte", mbps=100.0, speedup=None):
    seconds = 2048 * 32 * 4 / (mbps * 1e6)
    return PerfRecord(
        codec=codec,
        op=op,
        shape_name=shape,
        rows=2048,
        dim=32,
        input_nbytes=2048 * 32 * 4,
        seconds=seconds,
        throughput_mb_s=mbps,
        reference_seconds=None if speedup is None else seconds * speedup,
        speedup=speedup,
    )


class TestCompareToBaseline:
    def test_passes_within_band(self):
        assert compare_to_baseline([_record(mbps=40)], [_record(mbps=100)]) == []

    def test_fails_beyond_regression_factor(self):
        failures = compare_to_baseline([_record(mbps=30)], [_record(mbps=100)])
        assert len(failures) == 1
        assert "huffman.decode" in failures[0]

    def test_faster_is_always_fine(self):
        assert compare_to_baseline([_record(mbps=900)], [_record(mbps=100)]) == []

    def test_unmatched_kernels_ignored(self):
        current = [_record(codec="newcodec", mbps=1.0)]
        assert compare_to_baseline(current, [_record(mbps=100)]) == []

    def test_custom_factor(self):
        # hybrid.compress is outside TIGHTENED_GATES, so the caller's band
        # is the only gate in play.
        current = [_record(codec="hybrid", op="compress", mbps=30)]
        base = [_record(codec="hybrid", op="compress", mbps=100)]
        assert compare_to_baseline(current, base, max_regression=5.0) == []
        with pytest.raises(ValueError):
            compare_to_baseline(current, base, max_regression=1.0)

    def test_tightened_gate_beats_looser_custom_factor(self):
        """huffman.decode carries a 2.5x TIGHTENED_GATES entry; a looser
        generic band cannot loosen it."""
        current, base = [_record(mbps=30)], [_record(mbps=100)]
        failures = compare_to_baseline(current, base, max_regression=5.0)
        assert len(failures) == 1
        assert "huffman.decode" in failures[0] and "2.5" in failures[0]

    def test_slow_machine_passes_via_relative_speedup(self):
        """A uniformly slower machine (low MB/s but intact speedup vs the
        in-run reference) must not trip the cross-machine gate."""
        current = [_record(mbps=10, speedup=4.0)]
        base = [_record(mbps=100, speedup=4.2)]
        assert compare_to_baseline(current, base) == []

    def test_true_regression_fails_both_criteria(self):
        current = [_record(mbps=10, speedup=1.0)]
        base = [_record(mbps=100, speedup=4.2)]
        failures = compare_to_baseline(current, base)
        assert len(failures) == 1 and "huffman.decode" in failures[0]


class TestFormatTable:
    def test_contains_every_kernel_row(self, tiny_records):
        table = format_table(tiny_records)
        for record in tiny_records:
            assert record.codec in table and record.op in table
        assert "MB/s" in table and "speedup" in table
