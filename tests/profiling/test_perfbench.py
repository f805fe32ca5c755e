"""Tests for the codec throughput benchmark harness."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.profiling import perfbench
from repro.profiling.perfbench import (
    MAX_REGRESSION,
    PAPER_SHAPES,
    SMOKE_SHAPES,
    PerfRecord,
    append_run,
    compare_to_baseline,
    format_table,
    load_bench,
    load_trajectory,
    main,
    make_lookup_batch,
    run_suite,
)

TINY = {"tiny": (32, 8)}
COMMITTED_BENCH = Path(__file__).resolve().parents[2] / "BENCH_compression.json"


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

    def test_paper_shapes_are_the_default_geometry(self):
        assert PAPER_SHAPES["kaggle"] == (128, 32)
        assert PAPER_SHAPES["terabyte"] == (2048, 32)


class TestTrajectory:
    """Trajectory files: one run per landed change, oldest first."""

    def test_append_load_round_trip(self, tiny_records, tmp_path):
        older = [replace(r, throughput_mb_s=r.throughput_mb_s * 0.9) for r in tiny_records]
        path = append_run(older, tmp_path / "traj.json")
        append_run(tiny_records, path)
        assert load_trajectory(path) == [older, list(tiny_records)]
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 2
        assert all("python" in run and "numpy" in run for run in payload["runs"])

    def test_load_bench_returns_latest_run(self, tiny_records, tmp_path):
        path = append_run([], tmp_path / "traj.json")
        append_run(tiny_records, path)
        assert load_bench(path) == tiny_records

    def test_load_bench_rejects_empty_trajectory(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema_version": 2, "runs": []}))
        with pytest.raises(ValueError, match="no runs"):
            load_bench(path)
        assert load_trajectory(path) == []

    def test_append_extends_and_keeps_earlier_stanzas(self, tiny_records, tmp_path):
        path = append_run(tiny_records, tmp_path / "traj.json")
        payload = json.loads(path.read_text())
        payload["runs"][0]["machine"] = "elsewhere"
        path.write_text(json.dumps(payload))
        append_run(tiny_records, path)
        append_run(tiny_records, path)
        assert len(load_trajectory(path)) == 3
        assert json.loads(path.read_text())["runs"][0]["machine"] == "elsewhere"

    def test_append_creates_fresh_trajectory(self, tiny_records, tmp_path):
        path = append_run(tiny_records, tmp_path / "new.json")
        assert path == tmp_path / "new.json"
        assert load_trajectory(path) == [tiny_records]
        assert json.loads(path.read_text())["schema_version"] == 2

    def test_append_rejects_unknown_schema(self, tiny_records, tmp_path):
        """A file in another layout is refused, not overwritten."""
        path = tmp_path / "bad.json"
        original = json.dumps({"schema_version": 7})
        path.write_text(original)
        with pytest.raises(ValueError, match="schema"):
            append_run(tiny_records, path)
        assert path.read_text() == original

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema_version": 99, "records": []},
            # the retired flat one-run layout
            {"schema_version": 1, "python": "3", "numpy": "2", "machine": "x", "records": []},
        ],
    )
    def test_unsupported_schema_rejected(self, tiny_records, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        for reader in (load_bench, load_trajectory, lambda p: append_run(tiny_records, p)):
            with pytest.raises(ValueError, match="schema"):
                reader(path)

    def test_committed_bench_is_a_loadable_trajectory(self):
        """The repo-root BENCH_compression.json must parse as a multi-run
        trajectory with a stable kernel set in its latest run."""
        runs = load_trajectory(COMMITTED_BENCH)
        assert len(runs) >= 2
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

    def test_failure_line_states_floor_and_gate(self):
        assert compare_to_baseline([_record(mbps=30)], [_record(mbps=100)]) == [
            "huffman.decode [terabyte]: 30.0 MB/s < floor 40.0 MB/s "
            "(baseline 100.0 MB/s / 2.5x, machine factor 1.00)"
        ]

    def test_reference_probe_rescales_floor_for_kernels_without_one(self):
        """A kernel with no reference of its own passes 3x slower when the
        run's references are 3x slower too, and fails without that probe."""
        base_probe = _record(codec="probe", mbps=100, speedup=4.0)
        slow_probe = _record(codec="probe", mbps=100 / 3, speedup=4.0)
        assert slow_probe.reference_seconds == pytest.approx(3 * base_probe.reference_seconds)
        kernel, base_kernel = _record(op="encode", mbps=30), _record(op="encode", mbps=100)
        assert compare_to_baseline([slow_probe, kernel], [base_probe, base_kernel]) == []
        assert len(compare_to_baseline([kernel], [base_kernel])) == 1

    def test_faster_machine_never_tightens_floor(self):
        base_probe = _record(codec="probe", mbps=100, speedup=4.0)
        fast_probe = _record(codec="probe", mbps=200, speedup=4.0)  # references 2x faster
        base_kernel = _record(op="encode", mbps=100)
        assert compare_to_baseline(
            [fast_probe, _record(op="encode", mbps=45)], [base_probe, base_kernel]
        ) == []
        (line,) = compare_to_baseline(
            [fast_probe, _record(op="encode", mbps=35)], [base_probe, base_kernel]
        )
        assert "floor 40.0 MB/s" in line and "machine factor 0.50" in line

    def test_machine_factor_is_the_median_reference_ratio(self):
        """One reference that ran 10x slower does not excuse a regression
        when the other two ran at the baseline's speed."""
        base = [_record(codec=f"probe{i}", mbps=100, speedup=4.0) for i in range(3)]
        current = base[:2] + [_record(codec="probe2", mbps=10, speedup=4.0)]
        kernel, base_kernel = _record(op="encode", mbps=30), _record(op="encode", mbps=100)
        (line,) = compare_to_baseline(current + [kernel], base + [base_kernel])
        assert line.startswith("huffman.encode") and "machine factor 1.00" in line

    def test_speedup_escape_needs_a_baseline_speedup(self):
        current = [_record(mbps=30, speedup=4.0)]
        assert len(compare_to_baseline(current, [_record(mbps=100)])) == 1


def _slowed(record: PerfRecord, factor: float, *, reference: bool = False) -> PerfRecord:
    """``record`` with its kernel ``factor`` times slower — and its frozen
    reference too when ``reference`` (a slower machine, not slower code)."""
    ref = record.reference_seconds
    return replace(
        record,
        seconds=record.seconds * factor,
        throughput_mb_s=record.throughput_mb_s / factor,
        reference_seconds=ref * factor if reference and ref is not None else ref,
        speedup=None if record.speedup is None or reference else record.speedup / factor,
    )


class TestGateLaws:
    """The one perf gate, judged on the committed trajectory: its
    threshold is exactly :data:`MAX_REGRESSION` on every kernel, it does
    not mistake a slower machine for slower code, and it never flagged a
    landed run."""

    @pytest.fixture(scope="class")
    def runs(self):
        return load_trajectory(COMMITTED_BENCH)

    def test_one_kernel_threshold_is_max_regression_on_every_kernel(self, runs):
        latest = runs[-1]
        assert MAX_REGRESSION == 2.5
        for i, record in enumerate(latest):
            for factor, fails in ((2.4, False), (2.6, True)):
                current = list(latest)
                current[i] = _slowed(record, factor)
                failures = compare_to_baseline(current, latest)
                assert bool(failures) == fails, (record, factor, failures)
                if fails:
                    (line,) = failures
                    assert line.startswith(f"{record.codec}.{record.op} [{record.shape_name}]")

    def test_uniformly_slower_machine_passes(self, runs):
        latest = runs[-1]
        slower = [_slowed(r, 3.0, reference=True) for r in latest]
        assert compare_to_baseline(slower, latest) == []

    def test_every_committed_run_passes_against_the_one_before(self, runs):
        failures = {
            i: found
            for i in range(1, len(runs))
            if (found := compare_to_baseline(runs[i], runs[i - 1]))
        }
        assert failures == {}


class TestOnePerfGate:
    """The trajectory sentry, the per-kernel factor table, the settable
    factor and the flat one-run file layout are gone, and their options
    are not accepted anywhere."""

    REMOVED_NAMES = (
        "sentry",
        "SentryVerdict",
        "KernelVerdict",
        "TIGHTENED_GATES",
        "max_regression",
        "regression_factor",
        "regression-factor",
        "SCHEMA_VERSION",
        "write_bench",
        "write_trajectory",
    )

    def test_source_mentions_no_removed_name(self):
        root = Path(repro.__file__).parent
        hits = [
            f"{path.relative_to(root)}: {name}"
            for path in sorted(root.rglob("*.py"))
            for name in self.REMOVED_NAMES
            if name in path.read_text(encoding="utf-8")
        ]
        assert hits == []

    def test_compare_rejects_max_regression(self):
        with pytest.raises(TypeError):
            compare_to_baseline([_record()], [_record()], max_regression=3.0)

    @pytest.mark.parametrize(
        "argv", [["--out", "bench.json"], ["--check", "b.json", "--regression-factor", "3"]]
    )
    def test_cli_rejects_removed_options(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)  # argparse exits before anything is measured
        assert exc.value.code == 2


def _spy(log: list[str], tag: str, fn):
    """``fn``, appending ``tag`` to ``log`` on every call."""

    def call(*args):
        log.append(tag)
        return fn(*args)

    return call


class TestOneRunner:
    """Every row is timed by one runner: the second timer, the allocation
    tracer and fields, the settable error bound, seed and reference switch
    and the duplicate verify row are gone, and each reference is timed
    call by call against its kernel."""

    REMOVED_NAMES = (
        "_best_of",
        "_traced_peak",
        "tracemalloc",
        "from_timing",
        "alloc_nbytes",
        "include_reference",
        "measure_alloc",
        "interleave=",
        "zero_copy",
    )

    def test_source_mentions_no_removed_name(self):
        root = Path(repro.__file__).parent
        hits = [
            f"{path.relative_to(root)}: {name}"
            for path in sorted(root.rglob("*.py"))
            for name in self.REMOVED_NAMES
            if name in path.read_text(encoding="utf-8")
        ]
        assert hits == []

    @pytest.mark.parametrize("knob", ["include_reference", "error_bound", "seed"])
    def test_run_suite_rejects_removed_knobs(self, knob):
        with pytest.raises(TypeError):
            run_suite(TINY, repeats=1, **{knob: 1})

    def test_every_reference_alternates_with_its_kernel(self, monkeypatch):
        """Each row's calls as the runner makes them: fn, ref, fn, ref, ...
        for a row with a reference, fn alone for a row without one."""
        calls: dict[tuple[str, str, str], list[str]] = {}
        measure = perfbench._measure

        def logged(row, repeats):
            codec, op, shape_name, *geometry, fn, ref = row
            log = calls.setdefault((codec, op, shape_name), [])
            ref = None if ref is None else _spy(log, "ref", ref)
            return measure((codec, op, shape_name, *geometry, _spy(log, "fn", fn), ref), repeats)

        monkeypatch.setattr(perfbench, "_measure", logged)
        records = run_suite(TINY, repeats=3)
        assert len(calls) == len(records)
        for r in records:
            pattern = ["fn"] if r.reference_seconds is None else ["fn", "ref"]
            assert calls[(r.codec, r.op, r.shape_name)] == pattern * 3, (r.codec, r.op)


class TestMain:
    """The CLI around the gate, with the measurement replaced by fixed
    records so each case runs in milliseconds."""

    RUN = [_record(mbps=100, speedup=4.0), _record(op="encode", mbps=100)]

    @pytest.fixture
    def measured(self, monkeypatch):
        """Make ``main`` measure ``measured["records"]``; the arguments it
        passed to ``run_suite`` land in ``measured["calls"]``."""
        state = {"records": self.RUN, "calls": []}

        def fake_run_suite(shapes, *, repeats):
            state["calls"].append((shapes, repeats))
            return list(state["records"])

        monkeypatch.setattr(perfbench, "run_suite", fake_run_suite)
        return state

    def test_check_passes_against_a_matching_run(self, measured, tmp_path, capsys):
        path = append_run(self.RUN, tmp_path / "traj.json")
        assert main(["--check", str(path)]) == 0
        assert "within 2.5x" in capsys.readouterr().out

    def test_check_fails_and_names_the_kernel(self, measured, tmp_path, capsys):
        path = append_run(self.RUN, tmp_path / "traj.json")
        measured["records"] = [self.RUN[0], _slowed(self.RUN[1], 2.6)]
        assert main(["--check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PERF REGRESSION" in out and "huffman.encode [terabyte]" in out

    def test_check_judges_against_the_latest_run(self, measured, tmp_path):
        slow = [_slowed(r, 3.0) for r in self.RUN]
        path = append_run(slow, tmp_path / "traj.json")
        append_run(self.RUN, path)
        measured["records"] = slow
        assert main(["--check", str(path)]) == 1

    def test_append_adds_one_run_per_invocation(self, measured, tmp_path):
        path = tmp_path / "traj.json"
        assert main(["--append", str(path)]) == 0
        assert main(["--append", str(path)]) == 0
        assert load_trajectory(path) == [self.RUN, self.RUN]

    def test_smoke_and_repeats_reach_the_suite(self, measured):
        assert main(["--smoke", "--repeats", "2"]) == 0
        assert main([]) == 0
        assert measured["calls"] == [(SMOKE_SHAPES, 2), (PAPER_SHAPES, 5)]


class TestFormatTable:
    def test_contains_every_kernel_row(self, tiny_records):
        table = format_table(tiny_records)
        for record in tiny_records:
            assert record.codec in table and record.op in table
        assert "MB/s" in table and "speedup" in table
